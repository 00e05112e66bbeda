/**
 * @file
 * Table 3: single-access energy of each register sub-file as a
 * function of d+n, normalized to the unlimited-resource file.
 *
 * Paper values at d+n=20: simple 10.8%, short 2.9%, long 16.9%;
 * baseline 48.8%.
 */

#include "bench_util.hh"
#include "energy/report.hh"

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
    double unlimited = model.readEnergy(energy::unlimitedGeometry());
    double baseline = model.readEnergy(energy::baselineGeometry());

    Table table("Tab 3: per-access read energy (100% = unlimited)");
    table.setColumns({"d+n", "simple", "short", "long", "baseline"});
    for (unsigned dn : bench::kDnSweep) {
        auto params = core::CoreParams::contentAware(dn);
        auto geom = energy::caGeometry(params.physIntRegs, params.ca);
        table.addRow({strprintf("%u", dn),
                      Table::pct(model.readEnergy(geom.simple) /
                                 unlimited),
                      Table::pct(model.readEnergy(geom.shortFile) /
                                 unlimited),
                      Table::pct(model.readEnergy(geom.longFile) /
                                 unlimited),
                      Table::pct(baseline / unlimited)});
    }
    bench::printTable(table, args);
    args.writeReport();
    return 0;
}
