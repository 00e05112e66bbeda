/**
 * @file
 * SMT differential anchor: a one-thread run(sources) — thread 0's
 * SaltedFetchStream over the shared BranchPredictors — must be
 * bit-identical to the solo run(FetchStream&), not merely "same
 * cycles" but every counter in the full-fidelity RunResult
 * serialization, on every registered backend. This is what lets the
 * rest of the SMT test wall trust that any T>1 effect it observes is
 * sharing, not a drift between the two front ends. The workloads are
 * the golden leads of test_smt_golden.cc: hash_table, mem_chase, crc.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "core/smt.hh"
#include "regfile/registry.hh"
#include "sim/reporting.hh"
#include "workloads/workload.hh"

namespace carf
{

namespace
{

class SmtSoloDifferential : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(SmtSoloDifferential, OneThreadSmtMatchesSoloBitIdentical)
{
    const u64 insts = 20000;
    core::CoreParams params = core::CoreParams::forBackend(GetParam());
    for (const char *name : {"hash_table", "mem_chase", "crc"}) {
        SCOPED_TRACE(name);
        const auto &workload = workloads::findWorkload(name);

        auto solo_trace = workloads::makeTrace(workload, insts);
        core::PredictingFetchStream predicted(*solo_trace, params);
        core::Pipeline pipeline(params);
        core::RunResult solo = pipeline.run(predicted);

        auto smt_trace = workloads::makeTrace(workload, insts);
        core::SmtPipeline smt(params, 1);
        core::SmtResult multi = smt.run({smt_trace.get()}, false);
        ASSERT_EQ(multi.threads.size(), 1u);

        // Full-fidelity JSON comparison (host times excluded: both
        // runs leave them 0 here, but the exclusion documents the
        // contract).
        EXPECT_EQ(sim::runResultJsonFull(multi.threads[0], false),
                  sim::runResultJsonFull(solo, false));

        // The aggregate of a one-thread run carries the same counters
        // plus the trivial smt* fields.
        core::RunResult agg = multi.aggregate();
        EXPECT_EQ(agg.cycles, solo.cycles);
        EXPECT_EQ(agg.committedInsts, solo.committedInsts);
        EXPECT_EQ(agg.smtThreads, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SmtSoloDifferential,
    ::testing::ValuesIn(regfile::registry().names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace carf
