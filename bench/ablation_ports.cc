/**
 * @file
 * §4 port-reduction ablation. The paper argues port-count reduction
 * (à la Park/Powell/Vijaykumar, Tseng/Asanović) is orthogonal to the
 * content-aware organization, and that further reducing the CA
 * sub-files' ports would add "relatively low" energy savings at added
 * control complexity. This harness quantifies both directions:
 * IPC and register file energy for the baseline and the content-aware
 * file across read/write port counts.
 *
 * All seven configurations run as one job batch: each workload's
 * trace is emulated once into the shared trace cache and replayed
 * for every configuration.
 */

#include "bench_util.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("ablation_ports", argc, argv);
    args.readRegfileKey();
    args.rejectUnreadKeys();
    bench::printHeader(
        "Port reduction x organization (INT suite)",
        "port reduction is orthogonal; extra savings on the CA file "
        "are relatively low");

    struct PortPoint
    {
        unsigned rd, wr;
    };
    const PortPoint points[] = {{8, 6}, {6, 4}, {4, 3}};

    std::vector<std::pair<std::string, core::CoreParams>> configs = {
        {"unlimited INT", core::CoreParams::unlimited()},
    };
    for (const PortPoint &p : points) {
        auto base = core::CoreParams::baseline();
        base.intRfReadPorts = p.rd;
        base.intRfWritePorts = p.wr;
        configs.push_back(
            {strprintf("baseline %uR/%uW", p.rd, p.wr), base});

        auto ca = core::CoreParams::contentAware(20);
        ca.intRfReadPorts = p.rd;
        ca.intRfWritePorts = p.wr;
        configs.push_back({strprintf("CA %uR/%uW", p.rd, p.wr), ca});
    }

    auto runs = args.runSuites(workloads::intSuite(), configs);
    const auto &unlimited_run = runs[0];

    // Each energy is charged to the file the run simulated, at its
    // ports, so under regfile= it is the substituted backend's.
    auto run_energy = [&](size_t c) {
        return energy::FileCost(args.applyRegfileOverride(configs[c].second))
            .energy(runs[c].totalAccesses(), runs[c].totalShortWrites());
    };
    double unlimited_energy = run_energy(0);

    Table table("relative IPC (vs unlimited) and RF energy "
                "(vs unlimited) per port configuration");
    table.setColumns({"organization", "ports", "rel IPC",
                      "rel energy"});

    // configs[1..]: baseline then content-aware at each port point.
    for (size_t c = 1; c < configs.size(); ++c) {
        const PortPoint &p = points[(c - 1) / 2];
        table.addRow({c % 2 ? "baseline" : "content-aware",
                      strprintf("%uR/%uW", p.rd, p.wr),
                      Table::pct(sim::meanRelativeIpc(runs[c],
                                                      unlimited_run),
                                 2),
                      Table::pct(run_energy(c) / unlimited_energy)});
    }
    bench::printTable(table, args);

    std::printf("Reading: moving down rows trades IPC for port "
                "energy; the CA column's energy\ndeltas from port "
                "reduction are small next to the organization's own "
                "savings,\nmatching the paper's 'relatively low' "
                "assessment.\n");
    args.writeReport();
    return 0;
}
