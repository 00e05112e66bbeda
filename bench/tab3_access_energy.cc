/**
 * @file
 * Table 3: single-access energy of each register sub-file as a
 * function of d+n, normalized to the unlimited-resource file.
 *
 * Paper values at d+n=20: simple 10.8%, short 2.9%, long 16.9%;
 * baseline 48.8%.
 */

#include "bench_util.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("tab3_access_energy", argc, argv);
    args.rejectUnreadKeys();
    bench::printHeader(
        "Table 3: single-access energy normalized to unlimited",
        "at d+n=20: simple 10.8%, short 2.9%, long 16.9%; "
        "baseline 48.8%");

    energy::RixnerModel model;
    double unlimited = model.readEnergy(
        energy::FileCost(core::CoreParams::unlimited()).banks().front());
    double baseline = model.readEnergy(
        energy::FileCost(core::CoreParams::baseline()).banks().front());

    Table table("Tab 3: per-access read energy (100% = unlimited)");
    // The per-sub-file columns are the content-aware bank labels.
    table.setColumns(bench::bankRow(
        "d+n", energy::FileCost(core::CoreParams::contentAware()),
        bench::bankLabel, {"baseline"}));
    for (unsigned dn : bench::kDnSweep) {
        table.addRow(bench::bankRow(
            strprintf("%u", dn),
            energy::FileCost(core::CoreParams::contentAware(dn)),
            [&](const energy::BankGeometry &bank) {
                return Table::pct(model.readEnergy(bank) / unlimited);
            },
            {Table::pct(baseline / unlimited)}));
    }
    bench::printTable(table, args);
    args.writeReport();
    return 0;
}
