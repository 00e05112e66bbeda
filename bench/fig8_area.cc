/**
 * @file
 * Figure 8: total register file area relative to the unlimited file,
 * as a function of d+n.
 *
 * The paper reports the content-aware organization at 82.1% of the
 * baseline file's area (an ~18% reduction).
 */

#include "bench_util.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("fig8_area", argc, argv);
    args.rejectUnreadKeys();
    bench::printHeader(
        "Figure 8: relative register file area vs d+n",
        "content-aware total = 82.1% of baseline at d+n=20");

    double unlimited_area =
        energy::FileCost(core::CoreParams::unlimited()).area();
    double baseline_area =
        energy::FileCost(core::CoreParams::baseline()).area();
    // The per-sub-file columns are the content-aware bank labels.
    energy::FileCost chosen(core::CoreParams::contentAware());

    Table table("Fig 8: area (100% = unlimited)");
    table.setColumns(bench::bankRow("config", chosen, bench::bankLabel,
                                    {"total", "total vs baseline"}));
    table.addRow(bench::bankRow(
        "baseline", chosen, bench::noBank,
        {Table::pct(baseline_area / unlimited_area), Table::pct(1.0)}));

    for (unsigned dn : bench::kDnSweep) {
        energy::FileCost ca(core::CoreParams::contentAware(dn));
        table.addRow(bench::bankRow(
            strprintf("d+n=%u", dn), ca,
            [&](const energy::BankGeometry &bank) {
                return Table::pct(ca.model().area(bank) / unlimited_area);
            },
            {Table::pct(ca.area() / unlimited_area),
             Table::pct(ca.area() / baseline_area)}));
    }
    bench::printTable(table, args);
    args.writeReport();
    return 0;
}
