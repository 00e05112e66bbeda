/**
 * @file
 * Figure 5: average relative IPC (vs the unlimited-resource register
 * file) as a function of d+n, for the INT and FP suites, with 8 Short
 * and 48 Long registers.
 *
 * The paper reports the baseline at ~99% of unlimited, and the
 * content-aware organization climbing toward the baseline as d+n
 * grows: ~98.3% INT / ~99.7% FP at d+n=20.
 *
 * All configurations of a suite go in as one job batch, so each
 * workload's trace is emulated once into the shared trace cache and
 * replayed for every configuration.
 */

#include "bench_util.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("fig5_ipc_sweep", argc, argv);
    bench::printHeader(
        "Figure 5: average relative IPC vs d+n (8 short, 48 long)",
        "INT reaches ~98.3% and FP ~99.7% of unlimited at d+n=20; "
        "baseline ~99%");

    std::vector<std::pair<std::string, core::CoreParams>> int_configs = {
        {"unlimited INT", core::CoreParams::unlimited()},
        {"baseline INT", core::CoreParams::baseline()},
    };
    std::vector<std::pair<std::string, core::CoreParams>> fp_configs = {
        {"unlimited FP", core::CoreParams::unlimited()},
        {"baseline FP", core::CoreParams::baseline()},
    };
    for (unsigned dn : bench::kDnSweep) {
        auto params = core::CoreParams::contentAware(dn);
        auto label = strprintf("d+n=%u", dn);
        int_configs.push_back({"CA INT " + label, params});
        fp_configs.push_back({"CA FP " + label, params});
    }

    auto int_runs = args.runSuites(workloads::intSuite(), int_configs);
    auto fp_runs = args.runSuites(workloads::fpSuite(), fp_configs);
    const auto &unlimited_int = int_runs[0];
    const auto &unlimited_fp = fp_runs[0];

    Table table("Fig 5: relative IPC (100% = unlimited)");
    table.setColumns({"config", "INT", "FP"});
    table.addRow({"baseline",
                  Table::pct(sim::meanRelativeIpc(int_runs[1],
                                                  unlimited_int), 2),
                  Table::pct(sim::meanRelativeIpc(fp_runs[1],
                                                  unlimited_fp), 2)});

    for (size_t i = 0; i < bench::kDnSweep.size(); ++i) {
        table.addRow({strprintf("d+n=%u", bench::kDnSweep[i]),
                      Table::pct(sim::meanRelativeIpc(int_runs[2 + i],
                                                      unlimited_int), 2),
                      Table::pct(sim::meanRelativeIpc(fp_runs[2 + i],
                                                      unlimited_fp), 2)});
    }
    bench::printTable(table, args);
    args.writeReport();
    return 0;
}
