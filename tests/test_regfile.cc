/**
 * @file
 * Tests for the register file models: the flat baseline file and the
 * three-sub-file content-aware organization, including allocation
 * pressure, recovery, reconstruction invariants, and access counting.
 */

#include <gtest/gtest.h>

#include "common/bitutil.hh"
#include "common/random.hh"
#include "regfile/baseline.hh"
#include "regfile/content_aware.hh"

namespace carf::regfile
{

namespace
{

ContentAwareParams
paperParams()
{
    ContentAwareParams p;
    p.sim = {17, 3}; // d+n = 20
    p.longEntries = 48;
    return p;
}

} // namespace

TEST(BaselineRegFile, WriteReadRelease)
{
    BaselineRegFile rf("t", 8);
    rf.write(3, 0x1234);
    EXPECT_TRUE(rf.peek(3).live);
    auto read = rf.read(3);
    EXPECT_EQ(read.value, 0x1234u);
    rf.release(3);
    EXPECT_FALSE(rf.peek(3).live);
}

TEST(BaselineRegFile, CountsAccesses)
{
    BaselineRegFile rf("t", 8);
    rf.write(0, 5);
    rf.write(1, 0x1234567890ull);
    rf.read(0);
    rf.read(0);
    const auto &counts = rf.accessCounts();
    EXPECT_EQ(counts.totalWrites(), 2u);
    EXPECT_EQ(counts.totalReads(), 2u);
}

TEST(BaselineRegFileDeathTest, ReadDeadTagPanics)
{
    BaselineRegFile rf("t", 8);
    EXPECT_DEATH(rf.read(2), "dead tag");
}

TEST(ContentAwareParams, LongPointerGeometry)
{
    ContentAwareParams p = paperParams();
    EXPECT_EQ(p.longPointerBits(), 6u);       // log2ceil(48)
    EXPECT_EQ(p.longEntryBits(), 64 - 20 + 6); // 50 bits
}

TEST(ContentAwareParamsDeathTest, PointerMustFitValueField)
{
    ContentAwareParams p;
    p.sim = {4, 1}; // d+n = 5
    p.longEntries = 112; // m = 7 > 5
    p.issueStallThreshold = 0;
    EXPECT_DEATH(p.validate(), "does not fit");
}

// Misconfigured ablations must fail loudly, not skew results silently.

TEST(ContentAwareParamsDeathTest, ZeroLongEntriesRejected)
{
    ContentAwareParams p = paperParams();
    p.longEntries = 0;
    p.issueStallThreshold = 0;
    EXPECT_DEATH(p.validate(), "at least one Long entry");
}

TEST(ContentAwareParamsDeathTest, StallThresholdAtOrAboveKRejected)
{
    ContentAwareParams p = paperParams();
    p.longEntries = 8;
    p.issueStallThreshold = 8; // would stall issue forever
    EXPECT_DEATH(p.validate(), "stall issue forever");
}

TEST(ContentAwareParamsDeathTest, DegenerateSimilaritySplitsRejected)
{
    ContentAwareParams p = paperParams();
    p.sim = {0, 3}; // d = 0
    EXPECT_DEATH(p.validate(), "bad d");
    p.sim = {17, 0}; // n = 0
    EXPECT_DEATH(p.validate(), "bad d");
    p.sim = {60, 4}; // d + n = 64: no high bits left
    EXPECT_DEATH(p.validate(), "bad d");
    p.sim = {17, 9}; // 512-entry Short file
    EXPECT_DEATH(p.validate(), "too large");
}

TEST(ContentAware, ValidParamsPassValidation)
{
    ContentAwareParams p = paperParams();
    p.validate(); // must not exit
    p.longEntries = 9;
    p.issueStallThreshold = 8; // threshold == K-1 is the legal limit
    p.validate();
}

TEST(ContentAware, SimpleValueRoundTrip)
{
    ContentAwareRegFile rf("t", 16, paperParams());
    rf.write(0, 42);
    rf.write(1, static_cast<u64>(-42));
    EXPECT_EQ(rf.read(0).value, 42u);
    EXPECT_EQ(rf.read(0).type, ValueType::Simple);
    EXPECT_EQ(rf.read(1).value, static_cast<u64>(-42));
    EXPECT_EQ(rf.read(1).type, ValueType::Simple);
}

TEST(ContentAware, ShortValueRoundTripAfterAddressAllocation)
{
    ContentAwareRegFile rf("t", 16, paperParams());
    u64 addr = 0x4013'8000;
    rf.noteAddress(addr);
    rf.write(2, addr + 0x40);
    auto read = rf.read(2);
    EXPECT_EQ(read.type, ValueType::Short);
    EXPECT_EQ(read.value, addr + 0x40);
}

TEST(ContentAware, LongValueRoundTrip)
{
    ContentAwareRegFile rf("t", 16, paperParams());
    u64 value = 0xdeadbeefcafef00dull;
    auto access = rf.write(3, value);
    EXPECT_EQ(access.type, ValueType::Long);
    EXPECT_FALSE(access.stalled);
    EXPECT_EQ(rf.read(3).value, value);
    EXPECT_EQ(rf.freeLongEntries(), 47u);
    rf.release(3);
    EXPECT_EQ(rf.freeLongEntries(), 48u);
}

TEST(ContentAware, LongExhaustionStallsWrite)
{
    ContentAwareParams p = paperParams();
    p.longEntries = 2;
    p.issueStallThreshold = 0;
    ContentAwareRegFile rf("t", 16, p);
    Rng rng(1);
    rf.write(0, rng.next() | (1ull << 63));
    rf.write(1, rng.next() | (1ull << 63));
    auto access = rf.write(2, rng.next() | (1ull << 63));
    EXPECT_TRUE(access.stalled);
    EXPECT_FALSE(rf.peek(2).live);
    // A plain write stalls; only a forced one grows the overflow pool.
    EXPECT_EQ(rf.overflowLongEntries(), 0u);

    // Releasing a long frees an entry; the retry succeeds.
    rf.release(0);
    access = rf.write(2, 0xfeedfacecafebeefull);
    EXPECT_FALSE(access.stalled);
    EXPECT_EQ(rf.read(2).value, 0xfeedfacecafebeefull);
}

TEST(ContentAware, ForcedRecoveryOverflowsAndRetires)
{
    ContentAwareParams p = paperParams();
    p.longEntries = 1;
    p.issueStallThreshold = 0;
    ContentAwareRegFile rf("t", 16, p);
    rf.write(0, 0x1111111111111111ull);
    EXPECT_TRUE(rf.write(1, 0x2222222222222222ull).stalled);
    auto access = rf.writeForced(1, 0x2222222222222222ull);
    EXPECT_FALSE(access.stalled);
    EXPECT_EQ(rf.overflowLongEntries(), 1u);
    EXPECT_EQ(rf.read(1).value, 0x2222222222222222ull);
    // Overflow entries retire on release instead of joining the free
    // list, so capacity is not silently inflated.
    rf.release(1);
    EXPECT_EQ(rf.freeLongEntries(), 0u);
    rf.release(0);
    EXPECT_EQ(rf.freeLongEntries(), 1u);
}

TEST(ContentAware, IssueStallThreshold)
{
    ContentAwareParams p = paperParams();
    p.longEntries = 4;
    p.issueStallThreshold = 2;
    ContentAwareRegFile rf("t", 16, p);
    EXPECT_FALSE(rf.shouldStallIssue());
    rf.write(0, 0x8000000000000001ull);
    rf.write(1, 0x8000000000000002ull);
    EXPECT_TRUE(rf.shouldStallIssue()); // 2 free <= threshold
}

TEST(ContentAware, ShortEntriesProtectedWhileReferenced)
{
    ContentAwareRegFile rf("t", 16, paperParams());
    u64 addr = 0x4013'8000;
    rf.noteAddress(addr);
    rf.write(0, addr);
    ASSERT_EQ(rf.peek(0).type, ValueType::Short);
    // Many idle ROB intervals: the entry must survive because tag 0
    // still references it (reading it must keep reconstructing).
    for (int i = 0; i < 10; ++i)
        rf.onRobInterval();
    EXPECT_EQ(rf.read(0).value, addr);
    rf.release(0);
    for (int i = 0; i < 3; ++i)
        rf.onRobInterval();
    EXPECT_EQ(rf.liveShortEntries(), 0u);
}

/**
 * write() returns the type WR1 gave the value, the only classification
 * the core reads: a value in a resident Short group, a value of no
 * group, a simple value. The type is stored with the entry, so a group
 * placed after the write leaves it Long.
 */
TEST(ContentAware, WriteReturnsTheWr1Type)
{
    ContentAwareRegFile rf("t", 16, paperParams());
    u64 addr = 0x4013'8000;
    rf.noteAddress(addr);
    ASSERT_EQ(rf.liveShortEntries(), 1u);

    EXPECT_EQ(rf.write(0, addr + 4).type, ValueType::Short);
    EXPECT_EQ(rf.write(1, 0xdeadbeef12345678ull).type, ValueType::Long);
    EXPECT_EQ(rf.write(2, 17).type, ValueType::Simple);

    // Another Short index of the same high bits: no group yet.
    u64 later = 0x4017'8000;
    EXPECT_EQ(rf.write(3, later + 8).type, ValueType::Long);
    rf.noteAddress(later);
    ASSERT_EQ(rf.liveShortEntries(), 2u);
    EXPECT_EQ(rf.peek(3).type, ValueType::Long);
    EXPECT_EQ(rf.read(3).type, ValueType::Long);
    EXPECT_EQ(rf.write(4, later + 8).type, ValueType::Short);
}

/**
 * §3.2 recovery path, directly: repeated writeForced under Long-file
 * exhaustion must grow the emergency overflow pool by one entry each
 * time, and leave freeLongEntries()/liveLongEntries() consistent once
 * everything is released.
 */
TEST(ContentAware, RecoveryGrowsOverflowPoolAndStaysConsistent)
{
    ContentAwareParams p = paperParams();
    p.longEntries = 2;
    p.issueStallThreshold = 0;
    ContentAwareRegFile rf("t", 16, p);

    rf.write(0, 0x1111111111111111ull);
    rf.write(1, 0x2222222222222222ull);
    EXPECT_EQ(rf.freeLongEntries(), 0u);
    EXPECT_EQ(rf.overflowLongEntries(), 0u);

    // Forced writes past exhaustion: one overflow entry per recovery.
    for (unsigned i = 0; i < 3; ++i) {
        u64 value = 0x3333333333333300ull + i;
        auto access = rf.writeForced(2 + i, value);
        EXPECT_FALSE(access.stalled);
        EXPECT_EQ(access.type, ValueType::Long);
        EXPECT_EQ(rf.overflowLongEntries(), i + 1);
        EXPECT_EQ(rf.read(2 + i).value, value);
        EXPECT_EQ(rf.checkInvariants(), "");
    }
    EXPECT_EQ(rf.liveLongEntries(), 5u);

    // A forced write with a free entry available must NOT recover.
    rf.release(0);
    EXPECT_EQ(rf.freeLongEntries(), 1u);
    auto access = rf.writeForced(9, 0x4444444444444444ull);
    EXPECT_FALSE(access.stalled);
    EXPECT_EQ(rf.overflowLongEntries(), 3u);

    // Releasing everything retires the overflow entries permanently
    // and returns exactly the K real entries to the free list.
    for (u32 tag : {1u, 2u, 3u, 4u, 9u})
        rf.release(tag);
    EXPECT_EQ(rf.freeLongEntries(), 2u);
    EXPECT_EQ(rf.liveLongEntries(), 0u);
    EXPECT_EQ(rf.checkInvariants(), "");
}

/** The invariant checker itself must catch planted corruption. */
TEST(ContentAware, CheckInvariantsCatchesRefcountCorruption)
{
    ContentAwareRegFile rf("t", 16, paperParams());
    u64 addr = 0x4013'8000;
    rf.noteAddress(addr);
    rf.write(0, addr + 8);
    ASSERT_EQ(rf.peek(0).type, ValueType::Short);
    ASSERT_EQ(rf.checkInvariants(), "");

    // A leaked reference (e.g.\ a missed dropRef elsewhere) breaks
    // the slot's books.
    rf.debugInjectFault(rf.peek(0).subIndex);
    std::string err = rf.checkInvariants();
    EXPECT_NE(err.find("refcount"), std::string::npos) << err;
}

TEST(ContentAware, WriteCountsByType)
{
    ContentAwareRegFile rf("t", 16, paperParams());
    rf.noteAddress(0x4013'8000);
    rf.write(0, 1);                      // simple
    rf.write(1, 0x4013'8008);            // short
    rf.write(2, 0xdeadbeef12345678ull);  // long
    const auto &counts = rf.accessCounts();
    EXPECT_EQ(counts.writes[0], 1u);
    EXPECT_EQ(counts.writes[1], 1u);
    EXPECT_EQ(counts.writes[2], 1u);
    EXPECT_EQ(counts.shortProbeReads, 3u); // one WR1 probe per write
}

TEST(ContentAwareDeathTest, DoubleWritePanics)
{
    ContentAwareRegFile rf("t", 16, paperParams());
    rf.write(0, 1);
    EXPECT_DEATH(rf.write(0, 2), "double write");
}

TEST(ContentAwareDeathTest, ReadDeadTagPanics)
{
    ContentAwareRegFile rf("t", 16, paperParams());
    EXPECT_DEATH(rf.read(5), "dead tag");
}

/**
 * Property: for any value and any geometry, a write that completes
 * reconstructs the exact 64-bit value on read. (The implementation
 * also self-checks; this drives it across the full d+n sweep and all
 * three value types, including Short hits after address warm-up.)
 */
class RoundTripProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(RoundTripProperty, WriteThenReadIsIdentity)
{
    auto [dn, k] = GetParam();
    ContentAwareParams p;
    p.sim = {dn - 3, 3};
    p.longEntries = k;
    p.validate();
    ContentAwareRegFile rf("t", 64, p);
    Rng rng(dn * 31 + k);

    // Warm the Short file with a few address groups.
    std::vector<u64> bases;
    for (int i = 0; i < 6; ++i) {
        u64 base = (rng.next() << 14) | (1ull << 62);
        rf.noteAddress(base);
        bases.push_back(base);
    }

    u32 next_tag = 0;
    std::vector<std::pair<u32, u64>> live;
    for (int i = 0; i < 3000; ++i) {
        if (!live.empty() && rng.chance(0.45)) {
            size_t victim = rng.nextBounded(live.size());
            EXPECT_EQ(rf.read(live[victim].first).value,
                      live[victim].second);
            rf.release(live[victim].first);
            live.erase(live.begin() + victim);
            continue;
        }
        if (live.size() >= 60)
            continue;
        // Pick a value class.
        u64 value;
        switch (rng.nextBounded(3)) {
          case 0: // simple-ish
            value = static_cast<u64>(rng.nextRange(-(1 << 18), 1 << 18));
            break;
          case 1: // near a short base
            value = bases[rng.nextBounded(bases.size())] +
                    rng.nextBounded(1 << 12);
            break;
          default: // wide
            value = rng.next();
            break;
        }
        u32 tag = next_tag;
        next_tag = (next_tag + 1) % 64;
        bool in_use = false;
        for (auto &[t, v] : live)
            in_use |= t == tag;
        if (in_use)
            continue;
        auto access = rf.write(tag, value);
        if (access.stalled)
            continue; // long pressure: skip (tag stays dead)
        live.emplace_back(tag, value);
    }
    for (auto &[tag, value] : live)
        EXPECT_EQ(rf.read(tag).value, value);
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, RoundTripProperty,
    ::testing::Combine(::testing::Values(8u, 12u, 16u, 20u, 24u, 28u,
                                         32u),
                       ::testing::Values(16u, 48u, 112u)));

} // namespace carf::regfile
