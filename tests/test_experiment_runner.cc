/**
 * @file
 * Parallel-vs-serial equivalence suite for the experiment engine:
 * any worker count must produce the same results in the same order
 * as the serial path, and the progress callback must be serialized.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/logging.hh"
#include "sim/experiment_runner.hh"
#include "sim/experiments.hh"
#include "sim/oracle.hh"
#include "sim/reporting.hh"

namespace carf::sim
{

namespace
{

SimOptions
quick(u64 insts = 15000)
{
    SimOptions options;
    options.maxInsts = insts;
    return options;
}

/**
 * Field-by-field equality of two RunResults, excluding the host-time
 * fields (wallSeconds/traceBuildSeconds/simSeconds — the intentionally
 * nondeterministic ones).
 */
void
expectIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedInsts, b.committedInsts);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.bypass.totalBypassed(), b.bypass.totalBypassed());
    EXPECT_EQ(a.bypass.totalRegFile(), b.bypass.totalRegFile());
    for (unsigned t = 0; t < 3; ++t) {
        EXPECT_EQ(a.intRfAccesses.reads[t], b.intRfAccesses.reads[t]);
        EXPECT_EQ(a.intRfAccesses.writes[t], b.intRfAccesses.writes[t]);
    }
    EXPECT_EQ(a.intRfAccesses.shortProbeReads,
              b.intRfAccesses.shortProbeReads);
    for (unsigned bk = 0; bk < core::OperandMix::NumBuckets; ++bk)
        EXPECT_EQ(a.operandMix.counts[bk], b.operandMix.counts[bk]);
    EXPECT_EQ(a.cluster.localOperands, b.cluster.localOperands);
    EXPECT_EQ(a.cluster.crossOperands, b.cluster.crossOperands);
    EXPECT_EQ(a.shortFileWrites, b.shortFileWrites);
    EXPECT_EQ(a.longAllocStalls, b.longAllocStalls);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.issueStallCycles, b.issueStallCycles);
    EXPECT_EQ(a.avgLiveLong, b.avgLiveLong);
    EXPECT_EQ(a.avgLiveShort, b.avgLiveShort);
}

} // namespace

TEST(ExperimentRunner, HardwareJobsIsAtLeastOne)
{
    EXPECT_GE(ExperimentRunner::hardwareJobs(), 1u);
    EXPECT_EQ(ExperimentRunner(0).jobs(),
              ExperimentRunner::hardwareJobs());
    EXPECT_EQ(ExperimentRunner(3).jobs(), 3u);
}

TEST(ExperimentRunner, SerialAndParallelIntSuiteIdentical)
{
    const auto &suite = workloads::intSuite();
    auto params = core::CoreParams::contentAware(20);
    auto options = quick();

    auto serial = runSuite(suite, params, options, 1);
    auto parallel = runSuite(suite, params, options, 8);

    ASSERT_EQ(serial.results.size(), suite.size());
    ASSERT_EQ(parallel.results.size(), suite.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        expectIdentical(serial.results[i], parallel.results[i]);
        // Byte-level check through the reporting path too.
        EXPECT_EQ(runResultJsonFull(serial.results[i], false),
                  runResultJsonFull(parallel.results[i], false));
    }
    EXPECT_EQ(serial.meanIpc(), parallel.meanIpc());
}

TEST(ExperimentRunner, SubmissionOrderPreservedUnderContention)
{
    // Alternate long and short jobs: short jobs complete first, so a
    // runner that returned completion order would interleave them.
    std::vector<ExperimentJob> jobs;
    for (unsigned i = 0; i < 12; ++i) {
        u64 insts = (i % 2 == 0) ? 40000 : 2000;
        jobs.push_back({workloads::findWorkload(i % 4 < 2 ? "counters"
                                                          : "crc"),
                        core::CoreParams::baseline(), quick(insts),
                        strprintf("job%u", i), nullptr});
    }

    auto results = ExperimentRunner(8).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].workload, jobs[i].workload.name) << i;
        EXPECT_EQ(results[i].committedInsts,
                  jobs[i].options.maxInsts) << i;
        EXPECT_GT(results[i].wallSeconds, 0.0) << i;
    }
}

TEST(ExperimentRunner, ProgressCallbackSerializedAndComplete)
{
    auto jobs = suiteJobs(workloads::intSuite(),
                          core::CoreParams::baseline(), quick(4000),
                          "progress");

    std::mutex mutex;
    std::vector<size_t> completions;
    size_t total_seen = 0;
    auto results = ExperimentRunner(4).run(
        jobs, [&](const ExperimentProgress &p) {
            std::lock_guard<std::mutex> lock(mutex);
            completions.push_back(p.completed);
            total_seen = p.total;
            EXPECT_EQ(p.job.tag, "progress");
            EXPECT_EQ(p.result.workload, p.job.workload.name);
        });

    ASSERT_EQ(completions.size(), jobs.size());
    EXPECT_EQ(total_seen, jobs.size());
    // The runner serializes callbacks, so the completed counter must
    // step 1, 2, ..., N in callback order.
    for (size_t i = 0; i < completions.size(); ++i)
        EXPECT_EQ(completions[i], i + 1);
    EXPECT_EQ(results.size(), jobs.size());
}

TEST(ExperimentRunner, PerJobOracleMergeMatchesSharedSerialOracle)
{
    std::vector<workloads::Workload> mini = {
        workloads::findWorkload("counters"),
        workloads::findWorkload("hash_table"),
        workloads::findWorkload("crc"),
    };
    auto options = quick(8000);
    options.oracleSamplePeriod = 16;

    // Serial reference: one oracle accumulating across the suite.
    LiveValueOracle shared;
    for (const auto &w : mini)
        simulate(w, core::CoreParams::baseline(), options, &shared);

    // Parallel: a private oracle per job, merged in submission order.
    std::vector<std::unique_ptr<LiveValueOracle>> oracles;
    std::vector<ExperimentJob> jobs;
    for (const auto &w : mini) {
        oracles.push_back(std::make_unique<LiveValueOracle>());
        jobs.push_back({w, core::CoreParams::baseline(), options, "",
                        oracles.back().get()});
    }
    ExperimentRunner(4).run(jobs);
    LiveValueOracle merged;
    for (const auto &oracle : oracles)
        merged.merge(*oracle);

    EXPECT_EQ(merged.samples(), shared.samples());
    EXPECT_EQ(merged.avgLiveRegs(), shared.avgLiveRegs());
    EXPECT_EQ(merged.exactGroups().total(),
              shared.exactGroups().total());
    for (unsigned b = 0; b < GroupAccumulator::numBuckets; ++b) {
        EXPECT_EQ(merged.exactGroups().fraction(b),
                  shared.exactGroups().fraction(b)) << b;
        for (unsigned d = 0; d < 3; ++d) {
            EXPECT_EQ(merged.similarityGroups(d).fraction(b),
                      shared.similarityGroups(d).fraction(b))
                << b << " d" << d;
        }
    }
}

TEST(ExperimentRunner, EmptyBatchYieldsEmptyResults)
{
    EXPECT_TRUE(ExperimentRunner(4).run({}).empty());
}

TEST(ExperimentRunner, RunTasksVisitsEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 4u}) {
        ExperimentRunner runner(jobs);
        constexpr size_t count = 200;
        std::vector<std::atomic<int>> visits(count);
        runner.runTasks(count,
                        [&](size_t i) { visits[i].fetch_add(1); });
        for (size_t i = 0; i < count; ++i)
            EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

TEST(ExperimentRunner, RunTasksZeroCountIsANoOp)
{
    bool ran = false;
    ExperimentRunner(4).runTasks(0, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ExperimentRunnerDeathTest, ZeroIpcReferenceIsFatal)
{
    SuiteRun test, reference;
    core::RunResult r;
    r.workload = "stalled_kernel";
    r.ipc = 1.0;
    test.results.push_back(r);
    r.ipc = 0.0;
    reference.results.push_back(r);
    EXPECT_DEATH((void)meanRelativeIpc(test, reference),
                 "stalled_kernel.*zero");
}

} // namespace carf::sim
