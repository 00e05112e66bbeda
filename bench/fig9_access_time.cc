/**
 * @file
 * Figure 9: relative access time of the register sub-files vs d+n,
 * plus the §5 frequency-scaled speed-up estimate.
 *
 * The paper reports every content-aware sub-file faster than the
 * baseline file, enabling up to a 15% clock increase; with the
 * measured ~1.5% IPC loss, a 5% clock gain yields ~+3% speed-up and
 * 10-15% yields +8..13%.
 */

#include "bench_util.hh"
#include "energy/report.hh"
#include "sim/frequency.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("fig9_access_time", argc, argv);
    args.rejectUnreadKeys();
    bench::printHeader(
        "Figure 9: relative access time of the register files vs d+n",
        "all sub-files faster than baseline; up to ~15% clock headroom");

    energy::RixnerModel model;
    double unlimited_time =
        model.accessTime(energy::unlimitedGeometry());
    double baseline_time = model.accessTime(energy::baselineGeometry());

    Table table("Fig 9: access time (100% = unlimited)");
    table.setColumns({"config", "simple", "short", "long",
                      "slowest vs baseline"});
    table.addRow({"baseline", "-", "-", "-",
                  Table::pct(baseline_time / baseline_time)});

    for (unsigned dn : bench::kDnSweep) {
        auto params = core::CoreParams::contentAware(dn);
        auto geom = energy::caGeometry(params.physIntRegs, params.ca);
        double slowest = energy::caMaxAccessTime(model, geom);
        table.addRow({strprintf("d+n=%u", dn),
                      Table::pct(model.accessTime(geom.simple) /
                                 unlimited_time),
                      Table::pct(model.accessTime(geom.shortFile) /
                                 unlimited_time),
                      Table::pct(model.accessTime(geom.longFile) /
                                 unlimited_time),
                      Table::pct(slowest / baseline_time)});
    }
    bench::printTable(table, args);

    // §5 speed-up estimate at the paper's chosen point (d+n=20),
    // using the measured INT relative IPC.
    auto params = core::CoreParams::contentAware(20);
    auto baseline_run = args.runSuite(workloads::intSuite(),
                                      core::CoreParams::baseline(),
                                      "baseline INT");
    auto ca_run = args.runSuite(workloads::intSuite(), params,
                                "CA INT d+n=20");
    double rel_ipc = sim::meanRelativeIpc(ca_run, baseline_run);

    auto geom = energy::caGeometry(params.physIntRegs, params.ca);
    double max_gain = sim::potentialFrequencyGain(
        baseline_time, energy::caMaxAccessTime(model, geom));

    Table speedup("§5: frequency-scaled speed-up estimate (INT, "
                  "d+n=20, relative IPC " +
                  Table::pct(rel_ipc) + ")");
    speedup.setColumns({"clock gain", "speed-up vs baseline"});
    for (double gain : {0.05, 0.10, 0.15}) {
        speedup.addRow({Table::pct(gain, 0),
                        Table::pct(sim::frequencyScaledSpeedup(rel_ipc,
                                                               gain))});
    }
    speedup.addRow({"model max (" + Table::pct(max_gain) + ")",
                    Table::pct(sim::frequencyScaledSpeedup(rel_ipc,
                                                           max_gain))});
    bench::printTable(speedup, args);
    args.writeReport();
    return 0;
}
