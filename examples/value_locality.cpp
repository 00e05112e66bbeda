/**
 * @file
 * Workload characterization: run the live-value oracle on a chosen
 * workload and print its partial-value-locality profile — the
 * Figure 1/Figure 2 analysis for a single program, which is how one
 * decides whether the content-aware organization suits a workload.
 *
 * Usage: value_locality [workload=pointer_chase] [insts=300000]
 * [sample=8] plus the other window keys of sim::configureWindow()
 * (sampling is fatal: the oracle needs one continuous window).
 */

#include <cstdio>

#include "common/config.hh"
#include "common/table.hh"
#include "sim/simulator.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    const std::string name =
        config.getString("workload", "pointer_chase");

    sim::SimOptions options;
    options.maxInsts = 300000;
    options.oracleSamplePeriod = config.getU32("sample", 8);
    sim::configureWindow(config, options);
    config.rejectUnreadKeys("value_locality");

    sim::LiveValueOracle oracle({8, 12, 16, 20});
    auto result = sim::simulate(workloads::findWorkload(name),
                                core::CoreParams::baseline(), options,
                                &oracle);

    std::printf("%s: IPC %.3f, %.1f live integer registers/cycle, "
                "%llu oracle samples\n\n",
                name.c_str(), result.ipc, oracle.avgLiveRegs(),
                (unsigned long long)oracle.samples());

    Table table("value-group shares (rank buckets x grouping)");
    table.setColumns({"group", "exact", "d=8", "d=12", "d=16", "d=20"});
    for (unsigned b = 0; b < sim::GroupAccumulator::numBuckets; ++b) {
        std::vector<std::string> row = {
            sim::GroupAccumulator::bucketName(b),
            Table::pct(oracle.exactGroups().fraction(b))};
        for (unsigned di = 0; di < 4; ++di)
            row.push_back(
                Table::pct(oracle.similarityGroups(di).fraction(b)));
        table.addRow(row);
    }
    std::fputs(table.render().c_str(), stdout);

    double rest16 = oracle.similarityGroups(2).fraction(5);
    std::printf("\nverdict: %s partial value locality "
                "(REST at d=16 is %.1f%%; below ~25%% the "
                "content-aware file captures most live values)\n",
                rest16 < 0.25 ? "HIGH" : "MODERATE", 100.0 * rest16);
    return 0;
}
