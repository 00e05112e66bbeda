/**
 * @file
 * Figure 7: total register file energy (reads + writes) relative to
 * the unlimited-resource file, as a function of d+n, against the
 * baseline.
 *
 * The paper reports the baseline at ~48.8% of unlimited and the
 * content-aware organization at roughly half the baseline again
 * (~25% of unlimited at the chosen d+n=20).
 */

#include <tuple>

#include "bench_util.hh"
#include "energy/report.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("fig7_energy", argc, argv);
    args.rejectUnreadKeys();
    bench::printHeader(
        "Figure 7: relative register file energy vs d+n",
        "baseline ~48.8% of unlimited; content-aware ~half of baseline");

    energy::RixnerModel model;
    auto unlimited_geom = energy::unlimitedGeometry();
    auto baseline_geom = energy::baselineGeometry();

    for (auto [title, name, suite] :
         {std::tuple{"Fig 7 INT suite", "INT", &workloads::intSuite()},
          std::tuple{"Fig 7 FP suite", "FP", &workloads::fpSuite()}}) {
        // Reference energies use the unlimited run's access counts.
        auto unlimited_run = args.runSuite(
            *suite, core::CoreParams::unlimited(),
            strprintf("unlimited %s", name));
        double unlimited_energy = energy::conventionalEnergy(
            model, unlimited_geom, unlimited_run.totalAccesses());

        auto baseline_run = args.runSuite(
            *suite, core::CoreParams::baseline(),
            strprintf("baseline %s", name));
        double baseline_energy = energy::conventionalEnergy(
            model, baseline_geom, baseline_run.totalAccesses());

        Table table(title);
        table.setColumns({"config", "energy vs unlimited",
                          "energy vs baseline"});
        table.addRow({"baseline",
                      Table::pct(baseline_energy / unlimited_energy),
                      Table::pct(1.0)});

        for (unsigned dn : bench::kDnSweep) {
            auto params = core::CoreParams::contentAware(dn);
            auto run = args.runSuite(*suite, params,
                                     strprintf("CA %s d+n=%u", name, dn));
            auto geom =
                energy::caGeometry(params.physIntRegs, params.ca);
            double ca_energy = energy::contentAwareEnergy(
                model, geom, run.totalAccesses(),
                run.totalShortWrites());
            table.addRow({strprintf("d+n=%u", dn),
                          Table::pct(ca_energy / unlimited_energy),
                          Table::pct(ca_energy / baseline_energy)});
        }
        bench::printTable(table, args);
    }
    args.writeReport();
    return 0;
}
