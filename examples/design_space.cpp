/**
 * @file
 * Design-space exploration: sweep the content-aware parameters
 * (d+n, Short size M, Long size K) and rank configurations by
 * energy-delay product against the baseline — the study an architect
 * would run before committing to §4's chosen point (d+n=20, M=8,
 * K=48).
 *
 * Usage: design_space [insts=300000] [suite=int|fp]
 * plus the other window keys of sim::configureWindow().
 */

#include <algorithm>
#include <cstdio>

#include "common/config.hh"
#include "common/table.hh"
#include "energy/report.hh"
#include "sim/experiments.hh"

using namespace carf;

namespace
{

struct Point
{
    unsigned dn, n, k;
    double relIpc;
    double relEnergy;
    double edp; // energy x delay, both relative to baseline
};

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    sim::SimOptions options;
    options.maxInsts = 300000;
    sim::configureWindow(config, options);
    const bool use_fp = config.getString("suite", "int") == "fp";
    config.rejectUnreadKeys("design_space");
    const auto &suite =
        use_fp ? workloads::fpSuite() : workloads::intSuite();

    auto baseline_run =
        sim::runSuite(suite, core::CoreParams::baseline(), options);

    double baseline_energy =
        energy::FileCost(core::CoreParams::baseline())
            .energy(baseline_run.totalAccesses(), 0);

    std::vector<Point> points;
    for (unsigned dn : {12u, 16u, 20u, 24u}) {
        for (unsigned n : {2u, 3u, 4u}) {
            for (unsigned k : {32u, 48u, 64u}) {
                auto params = core::CoreParams::contentAware(dn, n, k);
                auto run = sim::runSuite(suite, params, options);
                double rel_ipc =
                    sim::meanRelativeIpc(run, baseline_run);
                double rel_energy =
                    energy::FileCost(params).energy(
                        run.totalAccesses(), run.totalShortWrites()) /
                    baseline_energy;
                // Delay ~ 1/IPC at fixed frequency.
                points.push_back(
                    {dn, n, k, rel_ipc, rel_energy,
                     rel_energy / rel_ipc});
            }
        }
    }

    std::sort(points.begin(), points.end(),
              [](const Point &a, const Point &b) { return a.edp < b.edp; });

    Table table("Design space ranked by energy-delay product "
                "(relative to baseline, suite=" +
                std::string(use_fp ? "fp" : "int") + ")");
    table.setColumns({"d+n", "M", "K", "rel IPC", "rel energy", "EDP"});
    for (const Point &p : points) {
        table.addRow({std::to_string(p.dn),
                      std::to_string(1u << p.n), std::to_string(p.k),
                      Table::pct(p.relIpc, 2), Table::pct(p.relEnergy, 1),
                      Table::num(p.edp, 3)});
    }
    std::fputs(table.render().c_str(), stdout);

    const Point &best = points.front();
    std::printf("\nbest EDP point: d+n=%u M=%u K=%u "
                "(paper's choice: d+n=20 M=8 K=48)\n",
                best.dn, 1u << best.n, best.k);
    return 0;
}
