/**
 * @file
 * Tests for the core's bookkeeping structures: tag free list,
 * ROB, issue queues, LSQ (memory dependence), and bypass accounting.
 */

#include <gtest/gtest.h>

#include "core/bypass.hh"
#include "core/core_stats.hh"
#include "core/issue_queue.hh"
#include "core/lsq.hh"
#include "core/rename.hh"
#include "core/rob.hh"

namespace carf::core
{

TEST(FreeList, AllocatesAllNonReservedTags)
{
    FreeList fl(8, 2);
    EXPECT_EQ(fl.freeCount(), 6u);
    std::vector<bool> seen(8, false);
    while (!fl.empty()) {
        u32 tag = fl.allocate();
        EXPECT_GE(tag, 2u);
        EXPECT_LT(tag, 8u);
        EXPECT_FALSE(seen[tag]);
        seen[tag] = true;
    }
}

TEST(FreeList, ReleaseMakesTagAvailable)
{
    FreeList fl(4, 3);
    u32 tag = fl.allocate();
    EXPECT_TRUE(fl.empty());
    fl.release(tag);
    EXPECT_EQ(fl.allocate(), tag);
}

TEST(Rob, FifoOrderAndCapacity)
{
    Rob rob(2);
    emu::DynOp op;
    op.seq = 1;
    rob.push(op);
    op.seq = 2;
    rob.push(op);
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.head().op.seq, 1u);
    rob.popHead();
    EXPECT_EQ(rob.head().op.seq, 2u);
    EXPECT_FALSE(rob.full());
}

TEST(RobDeathTest, OverflowPanics)
{
    Rob rob(1);
    emu::DynOp op;
    rob.push(op);
    EXPECT_DEATH(rob.push(op), "full ROB");
}

TEST(IssueQueue, OccupancyBounds)
{
    IssueQueue iq(2);
    iq.insert();
    iq.insert();
    EXPECT_TRUE(iq.full());
    iq.remove();
    EXPECT_FALSE(iq.full());
    EXPECT_EQ(iq.occupancy(), 1u);
}

TEST(IssueQueue, FpClassification)
{
    EXPECT_TRUE(usesFpQueue(isa::Opcode::FADD));
    EXPECT_TRUE(usesFpQueue(isa::Opcode::FCVTIF));
    EXPECT_FALSE(usesFpQueue(isa::Opcode::FLD)); // address generation
    EXPECT_FALSE(usesFpQueue(isa::Opcode::ADD));
    EXPECT_FALSE(usesFpQueue(isa::Opcode::BEQ));
}

TEST(Lsq, LoadWithNoOlderStoresIsReady)
{
    Lsq lsq(8);
    lsq.dispatchLoad(5);
    Cycle ready = 99;
    EXPECT_TRUE(lsq.loadReadyCycle(5, 0x1000, 8, ready));
    EXPECT_EQ(ready, 0u);
}

TEST(Lsq, LoadBlockedByUnissuedOverlappingStore)
{
    Lsq lsq(8);
    lsq.dispatchStore(1, 0x1000, 8);
    lsq.dispatchLoad(2);
    Cycle ready;
    EXPECT_FALSE(lsq.loadReadyCycle(2, 0x1004, 4, ready));
    lsq.storeIssued(1, 50);
    EXPECT_TRUE(lsq.loadReadyCycle(2, 0x1004, 4, ready));
    EXPECT_EQ(ready, 50u);
}

TEST(Lsq, NonOverlappingStoreDoesNotBlock)
{
    Lsq lsq(8);
    lsq.dispatchStore(1, 0x1000, 8);
    Cycle ready;
    EXPECT_TRUE(lsq.loadReadyCycle(2, 0x1008, 8, ready));
    EXPECT_EQ(ready, 0u);
}

TEST(Lsq, YoungerStoreIgnored)
{
    Lsq lsq(8);
    lsq.dispatchStore(10, 0x1000, 8);
    Cycle ready;
    // The load is OLDER than the store (seq 5 < 10).
    EXPECT_TRUE(lsq.loadReadyCycle(5, 0x1000, 8, ready));
    EXPECT_EQ(ready, 0u);
}

TEST(Lsq, LatestOverlappingStoreWins)
{
    Lsq lsq(8);
    lsq.dispatchStore(1, 0x1000, 8);
    lsq.dispatchStore(2, 0x1000, 8);
    lsq.storeIssued(1, 30);
    lsq.storeIssued(2, 70);
    Cycle ready;
    EXPECT_TRUE(lsq.loadReadyCycle(3, 0x1000, 8, ready));
    EXPECT_EQ(ready, 70u);
}

TEST(Lsq, CommitReleasesSlotsInOrder)
{
    Lsq lsq(2);
    lsq.dispatchStore(1, 0x0, 8);
    lsq.dispatchLoad(2);
    EXPECT_TRUE(lsq.full());
    lsq.commitStore(1);
    lsq.commitLoad();
    EXPECT_EQ(lsq.occupancy(), 0u);
}

TEST(LsqDeathTest, OutOfOrderStoreCommitPanics)
{
    Lsq lsq(4);
    lsq.dispatchStore(1, 0x0, 8);
    lsq.dispatchStore(2, 0x8, 8);
    EXPECT_DEATH(lsq.commitStore(2), "in order");
}

TEST(Bypass, SourceDecisionRule)
{
    // Producer completes at cycle 10, window 2: execs at 10 and 11
    // bypass, 12 reads the file.
    EXPECT_EQ(operandSource(10, 10, 2), OperandSource::Bypass);
    EXPECT_EQ(operandSource(11, 10, 2), OperandSource::Bypass);
    EXPECT_EQ(operandSource(12, 10, 2), OperandSource::RegFile);
    // Window 3 (extra level) covers one more cycle.
    EXPECT_EQ(operandSource(12, 10, 3), OperandSource::Bypass);
    EXPECT_EQ(operandSource(13, 10, 3), OperandSource::RegFile);
}

TEST(Bypass, StatsAccumulateByClass)
{
    BypassStats stats;
    stats.record(OperandSource::Bypass, false);
    stats.record(OperandSource::Bypass, true);
    stats.record(OperandSource::RegFile, false);
    stats.record(OperandSource::None, false); // ignored
    EXPECT_EQ(stats.bypassed(false), 1u);
    EXPECT_EQ(stats.bypassed(true), 1u);
    EXPECT_EQ(stats.regFileReads(false), 1u);
    EXPECT_DOUBLE_EQ(stats.bypassFraction(), 2.0 / 3.0);
}

TEST(OperandMix, BucketRouting)
{
    OperandMix mix;
    mix.record(true, false, false);
    mix.record(false, true, false);
    mix.record(false, false, true);
    mix.record(true, true, false);
    mix.record(true, false, true);
    mix.record(false, true, true);
    mix.record(false, false, false); // no operands: ignored
    EXPECT_EQ(mix.total(), 6u);
    for (unsigned b = 0; b < OperandMix::NumBuckets; ++b)
        EXPECT_EQ(mix.counts[b], 1u) << OperandMix::bucketName(b);
    EXPECT_DOUBLE_EQ(mix.fraction(OperandMix::OnlySimple), 1.0 / 6.0);
}

} // namespace carf::core
