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

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("fig7_energy", argc, argv);
    args.readRegfileKey();
    args.rejectUnreadKeys();
    bench::printHeader(
        "Figure 7: relative register file energy vs d+n",
        "baseline ~48.8% of unlimited; content-aware ~half of baseline");

    // Run @p params over @p suite and charge the energy to the file the
    // run simulated, so under regfile= it is the substituted backend's.
    auto run_energy = [&](const std::vector<workloads::Workload> &suite,
                          const core::CoreParams &params,
                          const std::string &label) {
        auto run = args.runSuite(suite, params, label);
        return energy::FileCost(args.applyRegfileOverride(params))
            .energy(run.totalAccesses(), run.totalShortWrites());
    };

    for (auto [title, name, suite] :
         {std::tuple{"Fig 7 INT suite", "INT", &workloads::intSuite()},
          std::tuple{"Fig 7 FP suite", "FP", &workloads::fpSuite()}}) {
        // Reference energies use the unlimited run's access counts.
        double unlimited_energy =
            run_energy(*suite, core::CoreParams::unlimited(),
                       strprintf("unlimited %s", name));
        double baseline_energy =
            run_energy(*suite, core::CoreParams::baseline(),
                       strprintf("baseline %s", name));

        Table table(title);
        table.setColumns({"config", "energy vs unlimited",
                          "energy vs baseline"});
        table.addRow({"baseline",
                      Table::pct(baseline_energy / unlimited_energy),
                      Table::pct(1.0)});

        for (unsigned dn : bench::kDnSweep) {
            double ca_energy =
                run_energy(*suite, core::CoreParams::contentAware(dn),
                           strprintf("CA %s d+n=%u", name, dn));
            table.addRow({strprintf("d+n=%u", dn),
                          Table::pct(ca_energy / unlimited_energy),
                          Table::pct(ca_energy / baseline_energy)});
        }
        bench::printTable(table, args);
    }
    args.writeReport();
    return 0;
}
