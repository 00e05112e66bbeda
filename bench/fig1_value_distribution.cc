/**
 * @file
 * Figure 1: distribution of live integer register values by
 * exact-value frequency group, for the INT and FP suites.
 *
 * The paper reports (SPECint): group1 14%, with the top groups
 * covering roughly half of all live values and REST 55%; SPECfp is
 * more concentrated in REST (63%).
 */

#include <memory>

#include "bench_util.hh"
#include "sim/oracle.hh"

using namespace carf;

namespace
{

/**
 * One job per workload, each sampling into its own oracle; the
 * per-workload oracles are merged in suite order, which reproduces
 * the serial shared-oracle accumulation exactly (all accumulators
 * are integer sums).
 */
sim::LiveValueOracle
runSuiteWithOracle(const std::vector<workloads::Workload> &suite,
                   const bench::BenchArgs &args, const char *label)
{
    std::vector<std::unique_ptr<sim::LiveValueOracle>> oracles;
    std::vector<sim::ExperimentJob> jobs;
    for (const auto &w : suite) {
        oracles.push_back(std::make_unique<sim::LiveValueOracle>());
        jobs.push_back({w, core::CoreParams::baseline(), args.options,
                        label, oracles.back().get()});
    }
    sim::SuiteRun run;
    run.results = args.runner.run(jobs);
    args.report.addSuite(label, run);

    sim::LiveValueOracle merged;
    for (const auto &oracle : oracles)
        merged.merge(*oracle);
    return merged;
}

void
report(const char *title, const sim::LiveValueOracle &oracle,
       const bench::BenchArgs &args)
{
    Table table(title);
    table.setColumns({"group", "share"});
    for (unsigned b = 0; b < sim::GroupAccumulator::numBuckets; ++b) {
        table.addRow({sim::GroupAccumulator::bucketName(b),
                      Table::pct(oracle.exactGroups().fraction(b))});
    }
    bench::printTable(table, args);
    std::printf("avg live integer registers per cycle: %.1f\n\n",
                oracle.avgLiveRegs());
}

} // namespace

int
main(int argc, char **argv)
{
    auto args =
        bench::BenchArgs::parse("fig1_value_distribution", argc, argv);
    args.options.oracleSamplePeriod = args.config.getU32("sample", 16);
    args.rejectUnreadKeys();
    bench::printHeader(
        "Figure 1: distribution of live integer data values",
        "SPECint: top value 14%, REST 55%; SPECfp: REST 63%");

    auto int_oracle =
        runSuiteWithOracle(workloads::intSuite(), args, "baseline INT");
    report("Fig 1a: INT suite (exact-value groups)", int_oracle, args);

    auto fp_oracle =
        runSuiteWithOracle(workloads::fpSuite(), args, "baseline FP");
    report("Fig 1b: FP suite (exact-value groups)", fp_oracle, args);
    args.writeReport();
    return 0;
}
