/**
 * @file
 * Tests for the statistics package.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace carf::stats
{

TEST(Average, MeanOfSamples)
{
    Average a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
}

} // namespace carf::stats
