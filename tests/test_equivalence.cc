/**
 * @file
 * Cross-model equivalence tests: after committing the same dynamic
 * instruction stream, the timing pipeline's architectural register
 * state (read through the rename map out of the modelled register
 * files, including the content-aware reconstruction path) must equal
 * the pure functional emulator's state. This closes the loop between
 * the functional and timing halves of the simulator.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "emu/emulator.hh"
#include "workloads/workload.hh"

namespace carf
{

namespace
{

class ArchEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

/** Fast-forward @p insts records of @p stream, as simulate() does. */
void
fastForward(core::Pipeline &pipeline, core::FetchStream &stream, u64 insts)
{
    core::Pipeline::WarmupScratch scratch;
    pipeline.warmUpRange(stream, insts, scratch);
    pipeline.installWarmState(scratch);
}

} // namespace

TEST_P(ArchEquivalence, PipelineMatchesEmulator)
{
    auto [workload_name, backend] = GetParam();
    const u64 insts = 20000;
    const auto &workload = workloads::findWorkload(workload_name);

    // Reference: pure functional execution.
    emu::Emulator reference(workload.build(), "ref", insts);
    emu::DynOp op;
    while (reference.next(op)) {
    }

    // Timed execution over the same stream, on the named backend.
    core::CoreParams params = core::CoreParams::forBackend(backend);
    auto trace = workloads::makeTrace(workload, insts);
    core::PredictingFetchStream stream(*trace, params);
    core::Pipeline pipeline(params);
    auto result = pipeline.run(stream);
    ASSERT_EQ(result.committedInsts, insts);

    for (unsigned r = 0; r < isa::numArchRegs; ++r) {
        EXPECT_EQ(pipeline.archIntReg(r), reference.intReg(r))
            << "int r" << r;
        EXPECT_EQ(pipeline.archFpReg(r), reference.fpRegBits(r))
            << "fp f" << r;
    }
}

namespace
{

std::string
archEquivalenceName(
    const ::testing::TestParamInfo<std::tuple<std::string, std::string>>
        &info)
{
    std::string config = std::get<1>(info.param);
    for (char &c : config)
        if (c == '-')
            c = '_';
    return std::get<0>(info.param) + "_" + config;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    WorkloadsTimesConfigs, ArchEquivalence,
    ::testing::Combine(::testing::Values("counters", "hash_table",
                                         "crc", "monte_carlo",
                                         "jacobi"),
                       ::testing::Values("unlimited", "baseline",
                                         "content-aware",
                                         "port-reduction")),
    archEquivalenceName);

TEST(WarmUpEquivalence, FastForwardPreservesArchState)
{
    // A fast-forward of N followed by run(M) must leave the same
    // architectural state as functionally executing N+M instructions.
    const u64 skip = 15000, window = 10000;
    const auto &workload = workloads::findWorkload("hash_table");

    emu::Emulator reference(workload.build(), "ref", skip + window);
    emu::DynOp op;
    while (reference.next(op)) {
    }

    auto trace = workloads::makeTrace(workload, skip + window);
    const auto params = core::CoreParams::contentAware();
    core::PredictingFetchStream stream(*trace, params);
    core::Pipeline pipeline(params);
    fastForward(pipeline, stream, skip);
    auto result = pipeline.run(stream);
    EXPECT_EQ(result.committedInsts, window);

    for (unsigned r = 0; r < isa::numArchRegs; ++r)
        EXPECT_EQ(pipeline.archIntReg(r), reference.intReg(r))
            << "int r" << r;
}

TEST(WarmUpEquivalence, WarmCachesRaiseWindowIpc)
{
    // A warmed window should not be slower than a cold one on a
    // cache-friendly kernel.
    const auto &workload = workloads::findWorkload("counters");

    const auto params = core::CoreParams::baseline();
    auto cold_trace = workloads::makeTrace(workload, 20000);
    core::PredictingFetchStream cold_stream(*cold_trace, params);
    core::Pipeline cold(params);
    auto cold_result = cold.run(cold_stream);

    auto warm_trace = workloads::makeTrace(workload, 40000);
    core::PredictingFetchStream warm_stream(*warm_trace, params);
    core::Pipeline warm(params);
    fastForward(warm, warm_stream, 20000);
    auto warm_result = warm.run(warm_stream);

    EXPECT_GE(warm_result.ipc, cold_result.ipc * 0.98);
}

} // namespace carf
