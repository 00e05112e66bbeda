/**
 * @file
 * Figure 8: total register file area relative to the unlimited file,
 * as a function of d+n.
 *
 * The paper reports the content-aware organization at 82.1% of the
 * baseline file's area (an ~18% reduction).
 */

#include "bench_util.hh"
#include "energy/report.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("fig8_area", argc, argv);
    args.rejectUnreadKeys();
    bench::printHeader(
        "Figure 8: relative register file area vs d+n",
        "content-aware total = 82.1% of baseline at d+n=20");

    energy::RixnerModel model;
    double unlimited_area = model.area(energy::unlimitedGeometry());
    double baseline_area = model.area(energy::baselineGeometry());

    Table table("Fig 8: area (100% = unlimited)");
    table.setColumns({"config", "simple", "short", "long", "total",
                      "total vs baseline"});
    table.addRow({"baseline", "-", "-", "-",
                  Table::pct(baseline_area / unlimited_area),
                  Table::pct(1.0)});

    for (unsigned dn : bench::kDnSweep) {
        auto params = core::CoreParams::contentAware(dn);
        auto geom = energy::caGeometry(params.physIntRegs, params.ca);
        double total = energy::caTotalArea(model, geom);
        table.addRow({strprintf("d+n=%u", dn),
                      Table::pct(model.area(geom.simple) /
                                 unlimited_area),
                      Table::pct(model.area(geom.shortFile) /
                                 unlimited_area),
                      Table::pct(model.area(geom.longFile) /
                                 unlimited_area),
                      Table::pct(total / unlimited_area),
                      Table::pct(total / baseline_area)});
    }
    bench::printTable(table, args);
    args.writeReport();
    return 0;
}
