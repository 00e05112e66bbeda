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
#include "sim/frequency.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("fig9_access_time", argc, argv);
    args.readRegfileKey();
    args.rejectUnreadKeys();
    bench::printHeader(
        "Figure 9: relative access time of the register files vs d+n",
        "all sub-files faster than baseline; up to ~15% clock headroom");

    double unlimited_time =
        energy::FileCost(core::CoreParams::unlimited()).accessTime();
    double baseline_time =
        energy::FileCost(core::CoreParams::baseline()).accessTime();
    // The per-sub-file columns are the content-aware bank labels.
    energy::FileCost chosen(core::CoreParams::contentAware());

    Table table("Fig 9: access time (100% = unlimited)");
    table.setColumns(bench::bankRow("config", chosen, bench::bankLabel,
                                    {"slowest vs baseline"}));
    table.addRow(bench::bankRow("baseline", chosen, bench::noBank,
                                {Table::pct(baseline_time / baseline_time)}));

    for (unsigned dn : bench::kDnSweep) {
        energy::FileCost ca(core::CoreParams::contentAware(dn));
        table.addRow(bench::bankRow(
            strprintf("d+n=%u", dn), ca,
            [&](const energy::BankGeometry &bank) {
                return Table::pct(ca.model().accessTime(bank) /
                                  unlimited_time);
            },
            {Table::pct(ca.accessTime() / baseline_time)}));
    }
    bench::printTable(table, args);

    // §5 speed-up estimate at the paper's chosen point (d+n=20),
    // using the measured INT relative IPC. Both access times are of
    // the files the two runs simulated, so under regfile= they are the
    // substituted backend's.
    auto baseline = core::CoreParams::baseline();
    auto params = core::CoreParams::contentAware(20);
    auto baseline_run =
        args.runSuite(workloads::intSuite(), baseline, "baseline INT");
    auto ca_run = args.runSuite(workloads::intSuite(), params,
                                "CA INT d+n=20");
    double rel_ipc = sim::meanRelativeIpc(ca_run, baseline_run);

    double max_gain = sim::potentialFrequencyGain(
        energy::FileCost(args.applyRegfileOverride(baseline)).accessTime(),
        energy::FileCost(args.applyRegfileOverride(params)).accessTime());

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
