/**
 * @file
 * Tests for the Rixner-style area/delay/energy model: monotonicity
 * properties, the paper's calibration anchors, and the content-aware
 * banks and energy accounting of the registry geometry path.
 */

#include <gtest/gtest.h>

#include "energy/report.hh"
#include "energy/rixner.hh"

namespace carf::energy
{

namespace
{

/** The paper's files: unlimited, baseline, content-aware at @p dn. */
FileCost
unlimitedFile()
{
    return FileCost(core::CoreParams::unlimited());
}

FileCost
baselineFile()
{
    return FileCost(core::CoreParams::baseline());
}

FileCost
caFile(unsigned dn = 20)
{
    return FileCost(core::CoreParams::contentAware(dn));
}

/** The content-aware banks, in order. */
enum CaBank { Simple, Short, Long };

} // namespace

TEST(RixnerModel, AreaMonotonicInEntriesWidthPorts)
{
    RixnerModel model;
    BankGeometry base{"", 64, 32, 8, 4};
    EXPECT_GT(model.area({"", 128, 32, 8, 4}), model.area(base));
    EXPECT_GT(model.area({"", 64, 64, 8, 4}), model.area(base));
    EXPECT_GT(model.area({"", 64, 32, 16, 4}), model.area(base));
    EXPECT_GT(model.area({"", 64, 32, 8, 8}), model.area(base));
}

TEST(RixnerModel, EnergyMonotonicInEntriesWidthPorts)
{
    RixnerModel model;
    BankGeometry base{"", 64, 32, 8, 4};
    EXPECT_GT(model.readEnergy({"", 128, 32, 8, 4}),
              model.readEnergy(base));
    EXPECT_GT(model.readEnergy({"", 64, 64, 8, 4}), model.readEnergy(base));
    EXPECT_GT(model.readEnergy({"", 64, 32, 16, 4}),
              model.readEnergy(base));
}

TEST(RixnerModel, DelayMonotonicInEntriesAndWidth)
{
    RixnerModel model;
    BankGeometry base{"", 64, 32, 8, 4};
    EXPECT_GT(model.accessTime({"", 256, 32, 8, 4}),
              model.accessTime(base));
    EXPECT_GT(model.accessTime({"", 64, 128, 8, 4}),
              model.accessTime(base));
}

TEST(RixnerModel, WriteCostsMoreThanRead)
{
    RixnerModel model;
    BankGeometry g{"", 112, 64, 8, 6};
    EXPECT_GT(model.writeEnergy(g), model.readEnergy(g));
}

TEST(RixnerModel, PortScalingIsSuperlinearInArea)
{
    // Doubling ports should more than double cell area contribution
    // for port-dominated cells (the classic P^2 effect).
    RixnerModel model;
    double a1 = model.area({"", 64, 64, 8, 4});  // 12 ports
    double a2 = model.area({"", 64, 64, 16, 8}); // 24 ports
    EXPECT_GT(a2 / a1, 1.7);
}

TEST(Calibration, BaselinePerAccessEnergyNearPaper)
{
    // Paper Table 3: baseline = 48.8% of the unlimited file.
    RixnerModel model;
    double ratio = model.readEnergy(baselineFile().banks().front()) /
                   model.readEnergy(unlimitedFile().banks().front());
    EXPECT_NEAR(ratio, 0.488, 0.02);
}

TEST(Calibration, SubFileEnergiesNearPaperAtChosenPoint)
{
    // Paper Table 3 at d+n=20: simple 10.8%, short 2.9%, long 16.9%.
    RixnerModel model;
    double unlimited = model.readEnergy(unlimitedFile().banks().front());
    FileCost ca = caFile();
    EXPECT_NEAR(model.readEnergy(ca.banks()[Simple]) / unlimited, 0.108,
                0.02);
    EXPECT_NEAR(model.readEnergy(ca.banks()[Short]) / unlimited, 0.029,
                0.02);
    EXPECT_NEAR(model.readEnergy(ca.banks()[Long]) / unlimited, 0.169,
                0.02);
}

TEST(Calibration, AreaReductionNearPaper)
{
    // Paper Figure 8: content-aware = 82.1% of baseline.
    double ratio = caFile().area() / baselineFile().area();
    EXPECT_NEAR(ratio, 0.821, 0.04);
}

TEST(Calibration, AccessTimeHeadroomNearPaper)
{
    // Paper Figure 9 / §5: up to ~15% clock headroom.
    double headroom =
        baselineFile().accessTime() / caFile().accessTime() - 1.0;
    EXPECT_GT(headroom, 0.10);
    EXPECT_LT(headroom, 0.25);
}

TEST(Calibration, EverySubFileFasterThanBaseline)
{
    RixnerModel model;
    double baseline = baselineFile().accessTime();
    for (unsigned dn : {8u, 12u, 16u, 20u, 24u, 28u, 32u}) {
        FileCost ca = caFile(dn);
        ASSERT_EQ(ca.banks().size(), 3u);
        for (const BankGeometry &bank : ca.banks())
            EXPECT_LT(model.accessTime(bank), baseline)
                << dn << " " << bank.label;
    }
}

TEST(CaGeometry, WidthsFollowDefinition)
{
    FileCost ca = caFile();
    const std::vector<BankGeometry> &banks = ca.banks();
    ASSERT_EQ(banks.size(), 3u);
    EXPECT_EQ(banks[Simple].label, "simple");
    EXPECT_EQ(banks[Short].label, "short");
    EXPECT_EQ(banks[Long].label, "long");
    // Simple: d+n value field + 2-bit RD.
    EXPECT_EQ(banks[Simple].entries, 112u);
    EXPECT_EQ(banks[Simple].widthBits, 22u);
    // Short: 2^n entries of 64-d-n bits, extra probe read ports.
    EXPECT_EQ(banks[Short].entries, 8u);
    EXPECT_EQ(banks[Short].widthBits, 44u);
    EXPECT_EQ(banks[Short].readPorts, 14u);
    // Long: K entries of 64-d-n+m bits.
    EXPECT_EQ(banks[Long].entries, 48u);
    EXPECT_EQ(banks[Long].widthBits, 50u);
}

TEST(CaGeometry, TrendsAcrossDn)
{
    RixnerModel model;
    double prev_simple = 0.0;
    double prev_long = 1e18;
    for (unsigned dn : {8u, 12u, 16u, 20u, 24u, 28u, 32u}) {
        FileCost ca = caFile(dn);
        double simple = model.readEnergy(ca.banks()[Simple]);
        double long_e = model.readEnergy(ca.banks()[Long]);
        EXPECT_GT(simple, prev_simple) << dn; // wider simple field
        EXPECT_LT(long_e, prev_long) << dn;   // narrower long entries
        prev_simple = simple;
        prev_long = long_e;
    }
}

TEST(EnergyAccounting, ConventionalUsesReadsAndWrites)
{
    RixnerModel model;
    FileCost baseline = baselineFile();
    const BankGeometry &g = baseline.banks().front();
    regfile::AccessCounts counts;
    counts.reads[0] = 10;
    counts.writes[2] = 5;
    double expected =
        10 * model.readEnergy(g) + 5 * model.writeEnergy(g);
    EXPECT_DOUBLE_EQ(baseline.energy(counts, 0), expected);
}

TEST(EnergyAccounting, ContentAwareChargesSubFiles)
{
    RixnerModel model;
    FileCost ca = caFile();
    const std::vector<BankGeometry> &g = ca.banks();
    regfile::AccessCounts counts;
    counts.reads[0] = 4; // simple-typed reads: simple file only
    counts.reads[2] = 2; // long-typed reads: simple + long
    counts.writes[1] = 3; // short-typed writes: simple file only
    counts.shortProbeReads = 3;
    double expected = 6 * model.readEnergy(g[Simple]) +
                      2 * model.readEnergy(g[Long]) +
                      3 * model.writeEnergy(g[Simple]) +
                      3 * model.readEnergy(g[Short]) +
                      1 * model.writeEnergy(g[Short]);
    EXPECT_DOUBLE_EQ(ca.energy(counts, 1), expected);
}

TEST(EnergyAccounting, ContentAwareBeatsBaselineOnTypicalMix)
{
    // With the paper's access mix (mostly simple/short), the
    // content-aware file must use less energy per access overall.
    regfile::AccessCounts counts;
    counts.reads[0] = 400;
    counts.reads[1] = 350;
    counts.reads[2] = 250;
    counts.writes[0] = 300;
    counts.writes[1] = 250;
    counts.writes[2] = 150;
    counts.shortProbeReads = 700;
    double ca = caFile().energy(counts, 50);
    double baseline = baselineFile().energy(counts, 0);
    EXPECT_LT(ca, 0.75 * baseline);
}

} // namespace carf::energy
