/**
 * @file
 * Integration tests asserting the paper's headline claims hold in
 * this reproduction (with reduced instruction budgets; the bench
 * harnesses regenerate the full tables). Bands are deliberately
 * generous — these tests guard the *direction and rough magnitude*
 * of each result, not exact numbers.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "energy/report.hh"
#include "sim/experiments.hh"
#include "sim/frequency.hh"

namespace carf
{

namespace
{

sim::SimOptions
quick()
{
    sim::SimOptions options;
    options.maxInsts = 150000;
    return options;
}

/** Shared runs across tests (computed once). */
struct Fixture
{
    sim::SuiteRun baselineInt;
    sim::SuiteRun caInt;
    sim::SuiteRun baselineFp;
    sim::SuiteRun caFp;

    Fixture()
    {
        auto options = quick();
        baselineInt = sim::runSuite(workloads::intSuite(),
                                    core::CoreParams::baseline(),
                                    options);
        caInt = sim::runSuite(workloads::intSuite(),
                              core::CoreParams::contentAware(20),
                              options);
        baselineFp = sim::runSuite(workloads::fpSuite(),
                                   core::CoreParams::baseline(),
                                   options);
        caFp = sim::runSuite(workloads::fpSuite(),
                             core::CoreParams::contentAware(20),
                             options);
    }
};

const Fixture &
fixture()
{
    static Fixture f;
    return f;
}

} // namespace

TEST(PaperClaims, IntIpcLossIsSmall)
{
    // Paper: 1.7% SPECint loss vs baseline. Allow up to 5% here.
    double rel = sim::meanRelativeIpc(fixture().caInt,
                                      fixture().baselineInt);
    EXPECT_GT(rel, 0.95);
    EXPECT_LE(rel, 1.005);
}

TEST(PaperClaims, FpIpcLossIsNegligible)
{
    // Paper: 0.3% SPECfp loss.
    double rel = sim::meanRelativeIpc(fixture().caFp,
                                      fixture().baselineFp);
    EXPECT_GT(rel, 0.985);
}

TEST(PaperClaims, EnergyHalvedVsBaseline)
{
    double ca = energy::FileCost(core::CoreParams::contentAware(20))
                    .energy(fixture().caInt.totalAccesses(),
                            fixture().caInt.totalShortWrites());
    double baseline = energy::FileCost(core::CoreParams::baseline())
                          .energy(fixture().baselineInt.totalAccesses(),
                                  0);
    // Paper: ~50% of baseline. Accept 35-65%.
    double ratio = ca / baseline;
    EXPECT_GT(ratio, 0.30);
    EXPECT_LT(ratio, 0.65);
}

TEST(PaperClaims, AccessDistributionShiftsWithDn)
{
    // Figure 6: the long share of accesses falls as d+n grows.
    auto options = quick();
    auto low = sim::runSuite(workloads::intSuite(),
                             core::CoreParams::contentAware(8),
                             options);
    const auto &high = fixture().caInt;
    auto counts_low = low.totalAccesses();
    auto counts_high = high.totalAccesses();
    double long_low = static_cast<double>(counts_low.writes[2]) /
                      counts_low.totalWrites();
    double long_high = static_cast<double>(counts_high.writes[2]) /
                       counts_high.totalWrites();
    EXPECT_LT(long_high, long_low);
}

TEST(PaperClaims, BypassShareRisesWithExtraLevel)
{
    // Table 2: the content-aware pipeline bypasses more operands.
    EXPECT_GE(fixture().caInt.bypassFraction(),
              fixture().baselineInt.bypassFraction());
    EXPECT_GE(fixture().caFp.bypassFraction(),
              fixture().baselineFp.bypassFraction());
}

TEST(PaperClaims, OperandTypesMostlyAgree)
{
    // Table 4: both operands share a value type for >80% of integer
    // instructions (paper: 86.6%).
    auto mix = fixture().caInt.totalOperandMix();
    double same = mix.fraction(core::OperandMix::OnlySimple) +
                  mix.fraction(core::OperandMix::OnlyShort) +
                  mix.fraction(core::OperandMix::OnlyLong);
    EXPECT_GT(same, 0.80);
}

TEST(PaperClaims, LiveLongRegistersFarBelowCapacity)
{
    // §6: the average number of live long registers is small (paper:
    // 12.7) — the 48-entry file is sized for peaks.
    EXPECT_LT(fixture().caInt.meanAvgLiveLong(), 30.0);
}

TEST(PaperClaims, RecoveriesAreRare)
{
    // §3.2: pseudo-deadlock "was observed to happen very
    // infrequently" with the issue-stall threshold.
    u64 total_insts = 0;
    for (const auto &r : fixture().caInt.results)
        total_insts += r.committedInsts;
    EXPECT_LT(fixture().caInt.totalRecoveries(),
              total_insts / 10000);
}

TEST(PaperClaims, SmtSharingSustainsThroughput)
{
    // §6: the average number of live Long registers is far below K,
    // so one Long file can feed two threads. At the single-thread
    // knee (K=48), a high-ILP thread (counters) plus a
    // dependence-limited partner (crc) must deliver more aggregate
    // throughput than either thread alone, and the content-aware
    // organization must stay competitive with the same-tag-capacity
    // conventional baseline under sharing. (A pointer-chasing
    // partner like hash_table instead shifts the Long knee past 48
    // — the ablation grid covers that regime.)
    sim::SimOptions options;
    options.maxInsts = 60000;
    options.smtMix = {"crc"};
    const auto &lead = workloads::findWorkload("counters");

    auto ca = core::CoreParams::contentAware(20, 3, 48);
    auto solo_a = sim::simulate(lead, ca, options);
    auto solo_b = sim::simulate(workloads::findWorkload("crc"),
                                ca, options);

    // Two resident threads get the SMT register budget the ablation
    // uses (80 + 32·T int, 96 + 32·T fp); the Long file stays at the
    // single-thread knee K=48 — that is the sharing claim under test.
    ca.smtThreads = 2;
    ca.physIntRegs = 80 + 32 * 2;
    ca.physFpRegs = 96 + 32 * 2;
    auto ca_smt = sim::simulateSmt(lead, ca, options);
    EXPECT_EQ(ca_smt.smtThreads, 2u);

    // Aggregate beats the faster solo thread: sharing one file
    // yields real multithreaded throughput, not time-slicing.
    EXPECT_GT(ca_smt.ipc, std::max(solo_a.ipc, solo_b.ipc));

    // The Long file never approaches its capacity even with two
    // threads resident — the §6 sharing argument itself.
    EXPECT_LT(ca_smt.avgLiveLong, 40.0);

    // Competitive with the conventional baseline of the same tag
    // count under the identical mix (the content-aware file trades
    // two-stage writeback for sharing-friendly storage).
    auto base = core::CoreParams::baseline();
    base.smtThreads = 2;
    base.physIntRegs = 80 + 32 * 2;
    base.physFpRegs = 96 + 32 * 2;
    auto base_smt = sim::simulateSmt(lead, base, options);
    EXPECT_GT(ca_smt.ipc, 0.93 * base_smt.ipc);

    // And the shared Short file does observe cross-thread value
    // similarity on this mix.
    EXPECT_GT(ca_smt.smtShortHits, 0u);
}

TEST(PaperClaims, FrequencyScaledSpeedupPositive)
{
    // §5: with the ~15% access-time headroom the IPC loss turns into
    // a speed-up.
    double gain = sim::potentialFrequencyGain(
        energy::FileCost(core::CoreParams::baseline()).accessTime(),
        energy::FileCost(core::CoreParams::contentAware(20)).accessTime());
    double rel = sim::meanRelativeIpc(fixture().caInt,
                                      fixture().baselineInt);
    EXPECT_GT(sim::frequencyScaledSpeedup(rel, gain), 0.0);
}

} // namespace carf
