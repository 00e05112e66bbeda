/**
 * @file
 * Tests for the SMT extension: single-thread equivalence, two-thread
 * progress and fairness, shared content-aware file behaviour, and
 * structural validation.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "core/smt.hh"
#include "isa/assembler.hh"
#include "workloads/workload.hh"

namespace carf::core
{

using namespace carf::isa;

namespace
{

std::unique_ptr<emu::TraceSource>
trace(const char *name, u64 insts)
{
    return workloads::makeTrace(workloads::findWorkload(name), insts);
}

/** The solo core over @p name's first @p insts records. */
RunResult
soloRun(const CoreParams &params, const char *name, u64 insts)
{
    auto source = trace(name, insts);
    PredictingFetchStream stream(*source, params);
    return Pipeline(params).run(stream);
}

} // namespace

TEST(Smt, SingleThreadMatchesPipeline)
{
    // With one thread the SMT core must time exactly like Pipeline:
    // same structures, same policies, no sharing.
    for (auto params : {CoreParams::baseline(),
                        CoreParams::contentAware()}) {
        auto single = soloRun(params, "hash_table", 30000);

        auto t2 = trace("hash_table", 30000);
        SmtPipeline smt(params, 1);
        auto multi = smt.run({t2.get()}, false);

        EXPECT_EQ(single.cycles, multi.cycles)
            << params.regFileBackend;
        EXPECT_EQ(single.committedInsts,
                  multi.threads[0].committedInsts);
    }
}

TEST(Smt, TwoThreadsBothProgress)
{
    auto ta = trace("counters", 40000);
    auto tb = trace("crc", 40000);
    SmtPipeline smt(CoreParams::baseline(), 2);
    auto result = smt.run({ta.get(), tb.get()});
    EXPECT_EQ(result.threads.size(), 2u);
    // Measurement stops when the first thread drains; both must have
    // made substantial progress by then.
    EXPECT_GT(result.threads[0].committedInsts, 10000u);
    EXPECT_GT(result.threads[1].committedInsts, 10000u);
    EXPECT_GT(result.totalIpc(), 1.0);
}

TEST(Smt, ThroughputExceedsSingleThread)
{
    // Two independent high-ILP threads must beat one (the basic SMT
    // premise).
    auto alone = soloRun(CoreParams::baseline(), "counters", 40000);

    auto ta = trace("counters", 40000);
    auto tb = trace("counters", 40000);
    SmtPipeline smt(CoreParams::baseline(), 2);
    auto both = smt.run({ta.get(), tb.get()});
    EXPECT_GT(both.totalIpc(), alone.ipc * 1.3);
}

TEST(Smt, IqClogThreadDoesNotStarvePartner)
{
    // A serial dependence-limited thread (crc) must not pin a
    // high-ILP partner (counters) to its own rate: the ICOUNT policy
    // and the per-thread IQ share cap keep the partner above 60% of
    // its solo throughput.
    auto solo = soloRun(CoreParams::baseline(), "counters", 60000);

    auto ta = trace("counters", 60000);
    auto tb = trace("crc", 60000);
    SmtPipeline smt(CoreParams::baseline(), 2);
    auto both = smt.run({ta.get(), tb.get()});
    EXPECT_GT(both.threads[0].ipc, 0.6 * solo.ipc);
}

TEST(Smt, SharedContentAwareFileKeepsValuesSeparate)
{
    // Two threads running the same program produce identical values
    // through one shared physical file; any cross-thread mixup would
    // trip the operand-verification panic.
    auto ta = trace("graph_walk", 30000);
    auto tb = trace("graph_walk", 30000);
    SmtPipeline smt(CoreParams::contentAware(), 2);
    auto result = smt.run({ta.get(), tb.get()}, false);
    EXPECT_EQ(result.threads[0].committedInsts, 30000u);
    EXPECT_EQ(result.threads[1].committedInsts, 30000u);
}

TEST(Smt, TinyLongFileStillCompletesUnderSharing)
{
    auto params = CoreParams::contentAware(20, 3, 16);
    auto ta = trace("crc", 20000);
    auto tb = trace("hash_table", 20000);
    SmtPipeline smt(params, 2);
    auto result = smt.run({ta.get(), tb.get()}, false);
    EXPECT_EQ(result.threads[0].committedInsts, 20000u);
    EXPECT_EQ(result.threads[1].committedInsts, 20000u);
}

TEST(Smt, LongPressureGrowsWithThreadCount)
{
    // Two threads demand more Long capacity than one: live-long
    // pressure (stalls + recoveries at small K) must not decrease.
    auto params = CoreParams::contentAware(20, 3, 20);
    params.ca.issueStallThreshold = 0;

    auto t1 = trace("crc", 30000);
    SmtPipeline one(params, 1);
    auto r1 = one.run({t1.get()}, false);

    auto ta = trace("crc", 30000);
    auto tb = trace("monte_carlo", 30000);
    SmtPipeline two(params, 2);
    auto r2 = two.run({ta.get(), tb.get()}, false);

    // Long pressure is attributed per thread; compare run totals.
    u64 pressure1 = r1.threads[0].longAllocStalls +
                    r1.threads[0].recoveries;
    u64 pressure2 = 0;
    for (const auto &t : r2.threads)
        pressure2 += t.longAllocStalls + t.recoveries;
    EXPECT_GE(pressure2, pressure1);
}

TEST(Smt, ConservationInvariantsAcrossThreadCounts)
{
    // For T in {2, 4}: per-thread counters must sum to the aggregate,
    // cross-thread shares must be a subset of total Short hits, and
    // the shared file's structural invariants must hold after every
    // cycle (debug-gated checkInvariants hook).
    const char *mix[] = {"counters", "crc", "hash_table", "rle"};
    for (unsigned num_threads : {2u, 4u}) {
        auto params = CoreParams::contentAware();
        params.physIntRegs = 80 + 32 * num_threads;
        params.physFpRegs = 96 + 32 * num_threads;

        std::vector<std::unique_ptr<emu::TraceSource>> traces;
        std::vector<emu::TraceSource *> sources;
        for (unsigned t = 0; t < num_threads; ++t) {
            traces.push_back(trace(mix[t % 4], 15000));
            sources.push_back(traces.back().get());
        }
        SmtPipeline smt(params, num_threads);
        smt.enableInvariantChecks();
        auto result = smt.run(sources, false);

        RunResult agg = result.aggregate();
        u64 inst_sum = 0, stall_sum = 0, recovery_sum = 0;
        for (const auto &t : result.threads) {
            inst_sum += t.committedInsts;
            stall_sum += t.longAllocStalls;
            recovery_sum += t.recoveries;
        }
        EXPECT_EQ(agg.committedInsts, inst_sum);
        EXPECT_EQ(agg.longAllocStalls, stall_sum);
        EXPECT_EQ(agg.recoveries, recovery_sum);
        ASSERT_EQ(agg.smtThreadInsts.size(), num_threads);
        for (unsigned t = 0; t < num_threads; ++t)
            EXPECT_EQ(agg.smtThreadInsts[t],
                      result.threads[t].committedInsts);

        // Sharing accounting: per-thread and in total, a cross-thread
        // share is one of that thread's Short hits.
        ASSERT_EQ(result.sharing.shortHits.size(), num_threads);
        for (unsigned t = 0; t < num_threads; ++t)
            EXPECT_LE(result.sharing.crossShortHits[t],
                      result.sharing.shortHits[t]);
        EXPECT_LE(agg.smtCrossShortHits, agg.smtShortHits);
        EXPECT_EQ(agg.smtShortHits, result.sharing.totalShortHits());
    }
}

TEST(Smt, CrossThreadSharingObservedOnIdenticalWorkloads)
{
    // Two copies of the same program produce the same values; the
    // shared Short file must register cross-thread group hits.
    auto ta = trace("hash_table", 25000);
    auto tb = trace("hash_table", 25000);
    SmtPipeline smt(CoreParams::contentAware(), 2);
    auto result = smt.run({ta.get(), tb.get()}, false);
    EXPECT_GT(result.sharing.totalShortHits(), 0u);
    EXPECT_GT(result.sharing.totalCrossShortHits(), 0u);
    // Fairness of a homogeneous pair should be high.
    EXPECT_GT(result.fairness(), 0.5);
}

TEST(Smt, HomogeneousPairDoesNotShareCacheLines)
{
    // Each thread runs in its own functional memory, so two copies of
    // a pointer chase touch distinct data even at equal addresses.
    // With unsalted addresses the partner prefetched every line and
    // each thread beat its solo IPC (superlinear SMT); sharing the
    // caches can only cost a thread throughput, never add to it.
    const u64 insts = 20000;
    auto params = CoreParams::contentAware();
    auto solo = soloRun(params, "mem_chase", insts);

    auto ta = trace("mem_chase", insts);
    auto tb = trace("mem_chase", insts);
    SmtPipeline smt(params, 2);
    auto pair = smt.run({ta.get(), tb.get()});
    ASSERT_EQ(pair.threads.size(), 2u);
    for (const auto &t : pair.threads)
        EXPECT_LE(t.ipc, solo.ipc);
}

TEST(Smt, RecoveryStarvationBoundIsFinite)
{
    // Contention-aware recovery: under heavy Long pressure every
    // stalled ROB head eventually gets its forced grant; the recorded
    // starvation bound must stay small relative to the run.
    auto params = CoreParams::contentAware(20, 3, 12);
    params.ca.issueStallThreshold = 0;
    auto ta = trace("crc", 20000);
    auto tb = trace("monte_carlo", 20000);
    SmtPipeline smt(params, 2);
    auto result = smt.run({ta.get(), tb.get()}, false);
    EXPECT_EQ(result.threads[0].committedInsts, 20000u);
    EXPECT_EQ(result.threads[1].committedInsts, 20000u);
    EXPECT_LT(result.maxRecoveryWait, result.cycles);
}

TEST(SmtDeathTest, TooManyThreadsForRegistersIsFatal)
{
    // 3 threads x 32 arch regs = 96 pre-allocated of 112: legal.
    // 4 threads = 128 > 112: dies (the shared free list cannot
    // reserve more architectural tags than exist).
    EXPECT_DEATH(SmtPipeline smt(CoreParams::baseline(), 4),
                 "FreeList|physical");
}

TEST(SmtDeathTest, SourceCountMismatchIsFatal)
{
    auto ta = trace("counters", 1000);
    SmtPipeline smt(CoreParams::baseline(), 2);
    EXPECT_DEATH(smt.run({ta.get()}), "sources");
}

} // namespace carf::core
