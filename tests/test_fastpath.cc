/**
 * @file
 * Fast-path engine test wall (DESIGN.md §4.8).
 *
 * The exact idle-cycle skip claims bit-identity, so the anchor test
 * compares the full-fidelity RunResult serialization of a stepped and
 * a skipping run for EVERY registered workload on EVERY registered
 * register-file backend. Around it: cycle-accounting conservation
 * (the buckets sum exactly to cycles on solo, SMT, and sampled runs),
 * evidence that the skip actually fires on the stall kernels, the
 * SMARTS sampling estimator's determinism and pinned accuracy, the
 * SimOptions::validate() rejection matrix, and result-store key
 * separation between sampled and full runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/fingerprint.hh"
#include "core/pipeline.hh"
#include "regfile/registry.hh"
#include "sim/reporting.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace carf
{

namespace
{

/** Solo run through the public facade with the skip on or off. */
core::RunResult
soloRun(const workloads::Workload &workload,
        const core::CoreParams &params, u64 insts, bool fast_path)
{
    sim::SimOptions options;
    options.maxInsts = insts;
    options.fastPath = fast_path;
    return sim::simulate(workload, params, options);
}

u64
bucketTotal(const core::CycleAccounting &acc)
{
    return acc.total();
}

class FastPathDifferential
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const auto &w : workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

std::string
fastPathCaseName(
    const ::testing::TestParamInfo<std::tuple<std::string, std::string>>
        &info)
{
    std::string name =
        std::get<0>(info.param) + "_" + std::get<1>(info.param);
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

} // namespace

TEST_P(FastPathDifferential, SkippingRunIsBitIdenticalToStepped)
{
    auto [workload_name, backend] = GetParam();
    const u64 insts = 15000;
    const auto &workload = workloads::findWorkload(workload_name);
    core::CoreParams params = core::CoreParams::forBackend(backend);

    core::RunResult stepped = soloRun(workload, params, insts, false);
    core::RunResult skipping = soloRun(workload, params, insts, true);

    EXPECT_EQ(stepped.fastPathSkips, 0u);
    EXPECT_EQ(stepped.fastPathSkippedCycles, 0u);
    // Full-fidelity comparison, host times excluded. The fastPath*
    // counters are deliberately outside the serialization (like host
    // times, they describe how the run was executed, not what it
    // computed), so this asserts every simulated statistic at once.
    EXPECT_EQ(sim::runResultJsonFull(stepped, false),
              sim::runResultJsonFull(skipping, false));

    // Conservation on both runs: every cycle lands in exactly one
    // bucket.
    EXPECT_EQ(bucketTotal(stepped.cycleAccounting), stepped.cycles);
    EXPECT_EQ(bucketTotal(skipping.cycleAccounting), skipping.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsTimesBackends, FastPathDifferential,
    ::testing::Combine(::testing::ValuesIn(allWorkloadNames()),
                       ::testing::ValuesIn(regfile::registry().names())),
    fastPathCaseName);

TEST(FastPath, SkipsActuallyFireOnStallKernels)
{
    // Guards against the skip silently degenerating to stepping
    // (quiescentUntil returning 0 everywhere would pass the
    // differential wall trivially). mem_chase serializes on off-chip
    // misses, so the overwhelming majority of its cycles must be
    // skipped, in big strides.
    const auto &workload = workloads::findWorkload("mem_chase");
    core::RunResult run = soloRun(
        workload, core::CoreParams::contentAware(20), 100000, true);
    ASSERT_GT(run.cycles, 0u);
    EXPECT_GT(run.fastPathSkips, 0u);
    EXPECT_GT(run.fastPathSkippedCycles, run.cycles / 2);
    EXPECT_GT(run.fastPathSkippedCycles / run.fastPathSkips, 10u);
    // And the accounting must say why: memory waits dominate.
    EXPECT_GT(
        run.cycleAccounting.counts[core::CycleAccounting::MemWait],
        run.cycles / 2);
}

TEST(FastPath, SkipsFireOnTheIcacheSide)
{
    const auto &workload = workloads::findWorkload("fetch_wall");
    core::RunResult run = soloRun(
        workload, core::CoreParams::contentAware(20), 100000, true);
    EXPECT_GT(run.fastPathSkippedCycles, run.cycles / 10);
    EXPECT_GT(
        run.cycleAccounting.counts[core::CycleAccounting::IcacheWait],
        0u);
}

namespace
{

/** Named SMT mixes for the T=2/4 skip wall: lead, partners. */
const std::map<std::string, std::pair<std::string,
                                      std::vector<std::string>>> &
smtMixes()
{
    static const std::map<std::string,
                          std::pair<std::string, std::vector<std::string>>>
        table = {
            {"hash_table", {"hash_table", {}}},
            {"mem_chase_counters", {"mem_chase", {"counters"}}},
            {"crc_daxpy", {"crc", {"daxpy"}}},
            {"mem_chase", {"mem_chase", {}}},
            {"stream_wall_fetch_wall", {"stream_wall", {"fetch_wall"}}},
        };
    return table;
}

core::CoreParams
smtParams(const std::string &backend, unsigned threads)
{
    core::CoreParams p = core::CoreParams::forBackend(backend);
    p.smtThreads = threads;
    p.physIntRegs = std::max(p.physIntRegs, 80 + 32 * threads);
    p.physFpRegs = std::max(p.physFpRegs, 96 + 32 * threads);
    return p;
}

/**
 * One SMT run of a named mix that drains every thread (so the
 * one-thread tail after the first drain is covered too).
 */
core::SmtResult
smtRun(const std::string &mix, unsigned threads,
       const core::CoreParams &params, u64 insts, bool fast_path)
{
    const auto &[lead, partners] = smtMixes().at(mix);
    std::vector<std::unique_ptr<emu::TraceSource>> traces;
    std::vector<emu::TraceSource *> sources;
    for (unsigned t = 0; t < threads; ++t) {
        const std::string &name =
            t == 0 || partners.empty()
                ? lead
                : partners[(t - 1) % partners.size()];
        traces.push_back(
            workloads::makeTrace(workloads::findWorkload(name), insts));
        sources.push_back(traces.back().get());
    }
    core::Pipeline core(params, threads);
    core.setFastPath(fast_path);
    return core.run(sources, false);
}

/** Stripped JSON of the aggregate followed by every thread's record. */
std::string
smtJson(const core::SmtResult &r)
{
    std::string all = sim::runResultJsonFull(r.aggregate(), false);
    for (const core::RunResult &t : r.threads)
        all += "\n" + sim::runResultJsonFull(t, false);
    return all;
}

using SmtCase = std::tuple<unsigned, std::string, std::string>;

class SmtFastPathDifferential : public ::testing::TestWithParam<SmtCase>
{
};

} // namespace

TEST_P(SmtFastPathDifferential, SkippingRunIsBitIdenticalToStepped)
{
    auto [threads, mix, backend] = GetParam();
    core::CoreParams params = smtParams(backend, threads);
    core::SmtResult stepped = smtRun(mix, threads, params, 8000, false);
    core::SmtResult skipping = smtRun(mix, threads, params, 8000, true);

    EXPECT_EQ(stepped.aggregate().fastPathSkips, 0u);
    // Every simulated statistic, per thread and aggregated, including
    // the per-thread and machine cycle buckets, the sharing counters
    // and the recovery starvation bound.
    EXPECT_EQ(smtJson(stepped), smtJson(skipping));
    EXPECT_EQ(stepped.maxRecoveryWait, skipping.maxRecoveryWait);

    // Conservation on both runs, per thread and for the machine.
    for (const core::SmtResult *r : {&stepped, &skipping}) {
        EXPECT_EQ(bucketTotal(r->machineAccounting), r->cycles);
        for (const core::RunResult &t : r->threads)
            EXPECT_EQ(bucketTotal(t.cycleAccounting), r->cycles);
    }
}

INSTANTIATE_TEST_SUITE_P(
    NamedMixesTimesBackends, SmtFastPathDifferential,
    ::testing::Combine(::testing::Values(2u, 4u),
                       ::testing::Values("hash_table",
                                         "mem_chase_counters",
                                         "crc_daxpy", "mem_chase",
                                         "stream_wall_fetch_wall"),
                       ::testing::Values("baseline", "content-aware",
                                         "port-reduction", "unlimited")),
    [](const ::testing::TestParamInfo<SmtCase> &info) {
        std::string name = "T" + std::to_string(std::get<0>(info.param)) +
                           "_" + std::get<1>(info.param) + "_" +
                           std::get<2>(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(FastPath, SkipsFireOnSmtStallMix)
{
    // mem_chase + counters through simulate() on a T=2 core: the
    // skip must fire (SimOptions::fastPath holds for SMT runs) and
    // the two settings must agree byte for byte.
    core::CoreParams params = smtParams("content-aware", 2);
    sim::SimOptions on;
    on.maxInsts = 20000;
    on.smtMix = {"counters"};
    sim::SimOptions off = on;
    off.fastPath = false;
    const auto &lead = workloads::findWorkload("mem_chase");
    core::RunResult fast = sim::simulate(lead, params, on);
    core::RunResult slow = sim::simulate(lead, params, off);
    EXPECT_EQ(slow.fastPathSkips, 0u);
    EXPECT_GT(fast.fastPathSkips, 0u);
    EXPECT_GT(fast.fastPathSkippedCycles, fast.cycles / 10);
    EXPECT_EQ(sim::runResultJsonFull(fast, false),
              sim::runResultJsonFull(slow, false));

    // Both threads stalled on memory most of the time: the skip
    // covers most of a drain-all mem_chase pair.
    core::SmtResult pair =
        smtRun("mem_chase", 2, params, 20000, true);
    core::RunResult agg = pair.aggregate();
    EXPECT_GT(agg.fastPathSkippedCycles, pair.cycles / 2);
}

TEST(FastPathDeathTest, SmtWatchdogFiresOnGenuineHang)
{
    // A memory latency beyond the watchdog horizon is a hang by the
    // simulator's definition: no commit for watchdogCycles. The skip
    // caps its jumps at the horizon, so the watchdog fires with the
    // fast path on exactly as it does stepping.
    core::CoreParams params = smtParams("content-aware", 2);
    params.memory.memoryLatency = 400000;
    for (bool fast_path : {false, true}) {
        EXPECT_DEATH((void)smtRun("mem_chase", 2, params, 2000,
                                  fast_path),
                     "no commit for 200000 cycles");
    }
}

TEST(FastPath, SmtWatchdogIgnoresLongSkippedStalls)
{
    // Just under the horizon: every miss idles ~190k cycles without a
    // commit, nearly all of them skipped. A skip must never look like
    // a hang, and the buckets still cover every cycle.
    core::CoreParams params = smtParams("content-aware", 2);
    params.memory.memoryLatency = 190000;
    core::SmtResult r = smtRun("mem_chase", 2, params, 300, true);
    for (const core::RunResult &t : r.threads)
        EXPECT_EQ(t.committedInsts, 300u);
    EXPECT_GT(r.cycles, 190000u);
    EXPECT_GT(r.aggregate().fastPathSkippedCycles, r.cycles * 9 / 10);
    EXPECT_EQ(bucketTotal(r.machineAccounting), r.cycles);
}

TEST(CycleAccounting, SumsToCyclesOnSmtRuns)
{
    const u64 insts = 20000;
    core::CoreParams params = core::CoreParams::contentAware(20);
    params.smtThreads = 2;
    sim::SimOptions options;
    options.maxInsts = insts;
    options.smtMix = {"counters"};
    core::RunResult agg = sim::simulate(
        workloads::findWorkload("pointer_chase"), params, options);
    // The aggregate carries the machine-level accounting: one bucket
    // per machine cycle, so it sums to the (shared) cycle count, not
    // to the per-thread sum.
    EXPECT_EQ(bucketTotal(agg.cycleAccounting), agg.cycles);
}

TEST(CycleAccounting, NamesCoverEveryBucket)
{
    for (unsigned b = 0; b < core::CycleAccounting::NumBuckets; ++b) {
        std::string name = core::CycleAccounting::bucketName(b);
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?");
    }
}

TEST(Sampling, DeterministicAndConserving)
{
    const auto &workload = workloads::findWorkload("graph_walk");
    core::CoreParams params = core::CoreParams::contentAware(20);
    sim::SimOptions options;
    options.maxInsts = 200000;
    options.samplingPeriod = 10000;

    core::RunResult a = sim::simulate(workload, params, options);
    core::RunResult b = sim::simulate(workload, params, options);
    EXPECT_EQ(sim::runResultJsonFull(a, false),
              sim::runResultJsonFull(b, false));

    // Measured-window cycles only, and the buckets cover exactly
    // those cycles.
    EXPECT_EQ(bucketTotal(a.cycleAccounting), a.cycles);
    EXPECT_EQ(a.samplingPeriod, 10000u);
    EXPECT_GT(a.samplingIntervals, 10u);
    EXPECT_GT(a.samplingSkippedInsts, 0u);
    EXPECT_GT(a.samplingIpcCi95, 0.0);
}

TEST(Sampling, PinnedAccuracyOnIntKernels)
{
    // Accuracy regression anchor: the sampled IPC estimate for two
    // memory-bound INT kernels must stay within 5% of the full
    // detailed run at this interval shape (measured ~0.0-1.2% when
    // the estimator landed; see BENCH fastpath). A methodology bug —
    // stale warm state, mis-placed snapshots, wrong denominators —
    // moves these by far more than 5%.
    core::CoreParams params = core::CoreParams::contentAware(20);
    for (const char *name : {"bst_search", "graph_walk"}) {
        const auto &workload = workloads::findWorkload(name);
        sim::SimOptions full;
        full.maxInsts = 200000;
        core::RunResult f = sim::simulate(workload, params, full);

        sim::SimOptions sampled = full;
        sampled.samplingPeriod = 10000;
        core::RunResult s = sim::simulate(workload, params, sampled);
        ASSERT_GT(f.ipc, 0.0);
        EXPECT_NEAR(s.ipc, f.ipc, f.ipc * 0.05) << name;
    }
}

TEST(Sampling, StreamingMatchesCached)
{
    // The period is not a multiple of the streaming block size, so
    // the functional gaps and detailed episodes end mid-block.
    const auto &workload = workloads::findWorkload("hash_table");
    core::CoreParams params = core::CoreParams::contentAware(20);
    sim::SimOptions options;
    options.maxInsts = 60000;
    options.samplingPeriod = 7777;
    options.samplingWarmup = 1500;
    options.samplingMeasure = 700;
    ASSERT_NE(options.samplingPeriod % emu::MeteredSource::blockRecords,
              0u);

    emu::TraceCache cache;
    sim::SimOptions cached = options;
    cached.traceCache = &cache;
    core::RunResult s = sim::simulate(workload, params, options);
    core::RunResult c = sim::simulate(workload, params, cached);
    EXPECT_EQ(cache.buildCount(workload.name), 1u);
    EXPECT_EQ(sim::runResultJsonFull(s, false),
              sim::runResultJsonFull(c, false));
    EXPECT_GT(s.samplingIntervals, 5u);
}

TEST(Sampling, StoreKeysSeparateSampledFromFullRuns)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("carf_fastpath_key_test_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    {
        sim::ResultStore store(dir.string(), buildFingerprint());
        core::CoreParams params = core::CoreParams::contentAware(20);
        sim::SimOptions full;
        full.maxInsts = 50000;

        sim::SimOptions sampled = full;
        sampled.samplingPeriod = 10000;

        std::string key_full = store.key("w", params, full);
        std::string key_sampled = store.key("w", params, sampled);
        EXPECT_NE(key_full, key_sampled);

        // A different interval shape is a different estimate.
        sim::SimOptions sampled2 = sampled;
        sampled2.samplingMeasure += 500;
        EXPECT_NE(store.key("w", params, sampled2), key_sampled);

        // The skip is bit-identical by contract, so it must NOT key;
        // and with sampling off the interval-shape knobs are inert,
        // so they must not key either.
        sim::SimOptions stepped = full;
        stepped.fastPath = false;
        EXPECT_EQ(store.key("w", params, stepped), key_full);
        sim::SimOptions inert = full;
        inert.samplingWarmup += 123;
        EXPECT_EQ(store.key("w", params, inert), key_full);
    }
    fs::remove_all(dir);
}

TEST(SamplingDeathTest, ValidateRejectsIncompatibleOptions)
{
    const auto &workload = workloads::findWorkload("counters");
    core::CoreParams params = core::CoreParams::contentAware(20);

    sim::SimOptions with_oracle;
    with_oracle.samplingPeriod = 10000;
    with_oracle.oracleSamplePeriod = 100;
    EXPECT_DEATH(with_oracle.validate(), "live-value oracle");

    sim::SimOptions with_ff;
    with_ff.samplingPeriod = 10000;
    with_ff.fastForward = 1000;
    EXPECT_DEATH(with_ff.validate(), "fastForward");

    sim::SimOptions zero_measure;
    zero_measure.samplingPeriod = 10000;
    zero_measure.samplingMeasure = 0;
    EXPECT_DEATH(zero_measure.validate(), "samplingMeasure");

    sim::SimOptions oversized;
    oversized.samplingPeriod = 1000;
    oversized.samplingWarmup = 900;
    oversized.samplingMeasure = 200;
    EXPECT_DEATH(oversized.validate(), "exceeds samplingPeriod");

    // Sampling on a multi-threaded core is rejected too.
    sim::SimOptions sampled;
    sampled.maxInsts = 20000;
    sampled.samplingPeriod = 10000;
    core::CoreParams smt = params;
    smt.smtThreads = 2;
    EXPECT_DEATH((void)sim::simulate(workload, smt, sampled),
                 "sampling runs one thread");
}

} // namespace carf
