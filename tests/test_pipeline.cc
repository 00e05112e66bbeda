/**
 * @file
 * Timing-behaviour tests of the out-of-order pipeline using small
 * crafted programs whose steady-state IPC is analytically known, plus
 * structural-limit and recovery checks.
 *
 * Every run doubles as a correctness check: the pipeline panics if a
 * register file read returns a value different from the functional
 * trace, so any renaming/bypass/classification bug aborts the test.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "emu/emulator.hh"
#include "isa/assembler.hh"

namespace carf::core
{

using namespace carf::isa;

namespace
{

/** Run a program (capped) on a pipeline; return the result. */
RunResult
runOn(const CoreParams &params, isa::Program program, u64 max_insts)
{
    emu::Emulator trace(std::move(program), "test", max_insts);
    PredictingFetchStream stream(trace, params);
    return Pipeline(params).run(stream);
}

/** Eight-way independent add stream: no dependences at all. */
isa::Program
independentAdds()
{
    Assembler a;
    a.label("top");
    for (u8 r = 1; r <= 8; ++r)
        a.addi(r, R0, 7);
    a.jmp("top");
    return a.finish();
}

/** Serial dependence chain of single-cycle adds. */
isa::Program
dependentAdds()
{
    Assembler a;
    a.label("top");
    for (int i = 0; i < 16; ++i)
        a.addi(R1, R1, 1);
    a.jmp("top");
    return a.finish();
}

/** Serial dependence chain of 3-cycle multiplies. */
isa::Program
dependentMuls()
{
    Assembler a;
    a.movi(R1, 3);
    a.label("top");
    for (int i = 0; i < 16; ++i)
        a.mul(R1, R1, R1);
    a.ori(R1, R1, 3); // keep it nonzero
    a.jmp("top");
    return a.finish();
}

/** Serial chain of dependent loads (same cached address). */
isa::Program
dependentLoads()
{
    Assembler a;
    a.dataU64(0x1000, {0x1000}); // mem[0x1000] = 0x1000: self-loop
    a.movi(R1, 0x1000);
    a.label("top");
    for (int i = 0; i < 16; ++i)
        a.ld(R1, R1, 0);
    a.jmp("top");
    return a.finish();
}

/**
 * Stream of long-valued results (xorshift chains) behind a serial
 * load chain. The slow chain keeps the ROB full of completed long
 * writers awaiting commit, so a small Long file is exhausted.
 */
isa::Program
longValueStream()
{
    Assembler a;
    a.dataU64(0x1000, {0x1000}); // self-loop pointer
    a.movi(R1, 0x123456789abcdef1ll);
    a.movi(R2, 0x0fedcba987654321ll);
    a.movi(R6, 0x1000);
    a.label("top");
    a.ld(R6, R6, 0); // serial 2-cycle chain gates commit
    a.ld(R6, R6, 0);
    a.slli(R3, R1, 13);
    a.xor_(R1, R1, R3);
    a.srli(R4, R2, 7);
    a.xor_(R2, R2, R4);
    a.xor_(R5, R1, R2);
    a.slli(R3, R2, 21);
    a.xor_(R2, R2, R3);
    a.xor_(R4, R2, R1);
    a.jmp("top");
    return a.finish();
}

} // namespace

TEST(PipelineTiming, IndependentOpsReachHighIpc)
{
    auto result = runOn(CoreParams::unlimited(), independentAdds(),
                        40000);
    // 8 adds + 1 jump per iteration; fetch stops at the taken jump, so
    // the front end supplies 9 instructions per 2 cycles -> IPC ~4.5.
    EXPECT_GT(result.ipc, 4.0);
}

TEST(PipelineTiming, DependentAddChainIsIpcOne)
{
    auto result = runOn(CoreParams::baseline(), dependentAdds(), 40000);
    EXPECT_NEAR(result.ipc, 1.0, 0.12);
}

TEST(PipelineTiming, DependentMulChainMatchesLatency)
{
    auto result = runOn(CoreParams::baseline(), dependentMuls(), 40000);
    EXPECT_NEAR(result.ipc, 1.0 / 3.0, 0.05);
}

TEST(PipelineTiming, DependentLoadChainMatchesLoadLatency)
{
    // Load-to-use latency with an L1 hit is 2 cycles (address
    // generation + cache access).
    auto result = runOn(CoreParams::baseline(), dependentLoads(),
                        40000);
    EXPECT_NEAR(result.ipc, 0.5, 0.08);
}

TEST(PipelineTiming, ExtraReadStageDoesNotSlowDependenceChains)
{
    // Back-to-back wakeup hides the second register-read stage, so a
    // pure dependence chain runs at the same rate (the paper's
    // argument for the negligible IPC cost of the extra stage).
    auto baseline = runOn(CoreParams::baseline(), dependentAdds(),
                          40000);
    auto ca = runOn(CoreParams::contentAware(), dependentAdds(), 40000);
    EXPECT_NEAR(ca.ipc, baseline.ipc, 0.05);
}

TEST(PipelineTiming, MispredictsCostMoreOnDeeperPipeline)
{
    // A data-dependent branch stream with ~50% taken rate.
    Assembler a;
    a.movi(R1, 0x9e3779b97f4a7c15ll);
    a.label("top");
    a.slli(R2, R1, 13);
    a.xor_(R1, R1, R2);
    a.srli(R2, R1, 7);
    a.xor_(R1, R1, R2);
    a.andi(R3, R1, 1);
    a.beq(R3, R0, "skip");
    a.addi(R4, R4, 1);
    a.label("skip");
    a.jmp("top");
    isa::Program p = a.finish();

    auto baseline = runOn(CoreParams::baseline(), p, 60000);
    auto ca = runOn(CoreParams::contentAware(), p, 60000);
    EXPECT_GT(baseline.branchMispredictRate(), 0.2);
    // Deeper register read -> later branch resolution -> lower IPC.
    EXPECT_LT(ca.ipc, baseline.ipc);
}

TEST(PipelineStructural, SingleWritePortCapsIpc)
{
    CoreParams params = CoreParams::baseline();
    params.intRfWritePorts = 1;
    auto result = runOn(params, independentAdds(), 30000);
    // Every add needs the single write port.
    EXPECT_LT(result.ipc, 1.15);
}

TEST(PipelineStructural, ReadPortsGateOldOperandConsumers)
{
    // Producers run far ahead of consumers, so consumer operands miss
    // the bypass window and need register file reads.
    Assembler a;
    for (u8 r = 1; r <= 12; ++r)
        a.movi(r, 1000 + r);
    a.label("top");
    for (u8 r = 1; r <= 12; r += 2)
        a.add(static_cast<u8>(R13 + r / 2), r, static_cast<u8>(r + 1));
    a.jmp("top");
    isa::Program p = a.finish();

    CoreParams narrow = CoreParams::baseline();
    narrow.intRfReadPorts = 2; // minimum legal: one per operand
    auto two_ports = runOn(narrow, p, 30000);
    auto eight_ports = runOn(CoreParams::baseline(), p, 30000);
    EXPECT_GT(eight_ports.ipc, two_ports.ipc * 1.5);
    EXPECT_GT(two_ports.bypass.totalRegFile(), 0u);
}

TEST(PipelineContentAware, TinyLongFileRecoversAndCompletes)
{
    CoreParams params = CoreParams::contentAware(20, 3, 9);
    params.ca.issueStallThreshold = 0; // force the recovery path
    auto result = runOn(params, longValueStream(), 30000);
    EXPECT_EQ(result.committedInsts, 30000u);
    EXPECT_GT(result.longAllocStalls + result.recoveries, 0u);
}

TEST(PipelineContentAware, IssueStallThresholdReducesRecoveries)
{
    CoreParams with_stall = CoreParams::contentAware(20, 3, 12);
    CoreParams no_stall = with_stall;
    no_stall.ca.issueStallThreshold = 0;
    auto guarded = runOn(with_stall, longValueStream(), 30000);
    auto unguarded = runOn(no_stall, longValueStream(), 30000);
    EXPECT_LE(guarded.recoveries, unguarded.recoveries);
}

TEST(PipelineContentAware, BypassFractionExceedsBaseline)
{
    // The extra bypass level must raise the bypassed-operand share
    // (Table 2's direction).
    auto baseline = runOn(CoreParams::baseline(), dependentLoads(),
                          30000);
    auto ca = runOn(CoreParams::contentAware(), dependentLoads(),
                    30000);
    EXPECT_GE(ca.bypass.bypassFraction(),
              baseline.bypass.bypassFraction());
}

TEST(PipelineContentAware, MissingExtraBypassCostsIpc)
{
    CoreParams with_bypass = CoreParams::contentAware();
    CoreParams without = with_bypass;
    without.extraBypassLevel = false;
    // Use a stream whose operands often land exactly in the gap.
    auto with_result = runOn(with_bypass, dependentLoads(), 30000);
    auto without_result = runOn(without, dependentLoads(), 30000);
    EXPECT_LE(without_result.ipc, with_result.ipc + 1e-9);
}

TEST(PipelineContentAware, AccessCountsCoverCommittedWriters)
{
    auto result = runOn(CoreParams::contentAware(), dependentAdds(),
                        20000);
    // Every int-writing instruction performs exactly one RF write.
    // dependentAdds is 16 adds + 1 jal(r0) per iteration.
    u64 writers = result.intRfAccesses.totalWrites();
    EXPECT_NEAR(static_cast<double>(writers),
                20000.0 * 16.0 / 17.0, 250.0);
}

TEST(PipelineContentAware, FunctionalWorkStaysOutOfTheResult)
{
    // A sampled run's gap: functional warm-up places load addresses
    // in the Short file, and installing its values writes the file.
    // Neither is a detailed instruction, so neither reaches a result.
    CoreParams params = CoreParams::contentAware();
    emu::Emulator trace(longValueStream(), "test", 30000);
    PredictingFetchStream stream(trace, params);
    Pipeline pipeline(params);
    pipeline.beginRun("test");
    Pipeline::WarmupScratch scratch;
    pipeline.warmUpRange(stream, 10000, scratch);
    pipeline.installWarmState(scratch);
    RunResult gap = pipeline.finishRun();
    EXPECT_EQ(gap.intRfAccesses.totalReads(), 0u);
    EXPECT_EQ(gap.intRfAccesses.totalWrites(), 0u);
    EXPECT_EQ(gap.intRfAccesses.shortProbeReads, 0u);
    EXPECT_EQ(gap.shortFileWrites, 0u);
}

TEST(OperandTypes, CountedAsWrittenAtWr1)
{
    // R1 is written before any Short group holds its high bits, so WR1
    // types it Long. A store then places that group, and R1's consumer
    // issues after it: the consumer must count R1 as Long, the type
    // the register carries, not as the Short it would classify as by
    // then.
    const u64 group = 0x4013'8000;
    Assembler a;
    a.movi(R1, static_cast<i64>(group + 8));
    a.movi(R4, static_cast<i64>(group));
    a.movi(R6, 0);
    for (int i = 0; i < 8; ++i)
        a.mul(R6, R6, R6); // delays the store well past R1's writeback
    a.st(R6, R4, 0);       // its address places R1's Short group
    a.mul(R7, R6, R6);     // issues no earlier than the store
    a.add(R3, R1, R7);     // ...so this consumer issues after it
    a.halt();

    RunResult result = runOn(CoreParams::contentAware(), a.finish(), 100);
    const OperandMix &mix = result.operandMix;
    EXPECT_EQ(mix.counts[OperandMix::OnlyShort], 0u);
    EXPECT_EQ(mix.counts[OperandMix::SimpleShort], 0u);
    EXPECT_EQ(mix.counts[OperandMix::ShortLong], 0u);
    // The store (R6 Simple, R4 Long) and the consumer (R1 Long, R7
    // Simple); each crosses clusters once.
    EXPECT_EQ(mix.counts[OperandMix::SimpleLong], 2u);
    EXPECT_EQ(result.cluster.crossOperands, 2u);
}

TEST(PipelineDeterminism, RepeatRunsAreIdentical)
{
    auto a = runOn(CoreParams::contentAware(), longValueStream(),
                   25000);
    auto b = runOn(CoreParams::contentAware(), longValueStream(),
                   25000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedInsts, b.committedInsts);
    EXPECT_EQ(a.intRfAccesses.totalReads(),
              b.intRfAccesses.totalReads());
}

TEST(PipelineOracle, ObserverReceivesSamples)
{
    CoreParams params = CoreParams::baseline();

    class CountingObserver : public CycleObserver
    {
      public:
        u64 samples = 0;
        void
        sampleCycle(Cycle, const regfile::RegisterFile &) override
        {
            ++samples;
        }
    } observer;

    emu::Emulator trace(dependentAdds(), "test", 10000);
    PredictingFetchStream stream(trace, params);
    Pipeline pipeline(params);
    auto result = pipeline.run(stream, &observer, 4);
    EXPECT_GT(observer.samples, result.cycles / 5);
}

} // namespace carf::core
