/**
 * @file
 * §4 baseline-selection study: the paper justifies its baseline
 * (112 registers, 8 read / 6 write ports) by showing each reduction
 * from the unlimited file (160 regs, 16R/8W) costs almost nothing:
 * 112 registers ~1% IPC, 8 read ports 0.17%, 6 write ports 0.21%.
 *
 * The eleven configurations run as one job batch: each workload's
 * trace is emulated once into the shared trace cache and replayed
 * for every configuration.
 */

#include "bench_util.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args =
        bench::BenchArgs::parse("tab1_baseline_selection", argc, argv);
    args.readRegfileKey();
    args.rejectUnreadKeys();
    bench::printHeader(
        "§4: baseline register file selection (INT suite)",
        "112 regs cost ~1%; 8R costs 0.17%; 6W costs 0.21% vs "
        "unlimited");

    std::vector<std::pair<std::string, core::CoreParams>> configs = {
        {"unlimited INT", core::CoreParams::unlimited()},
    };

    // Register count sweep at full ports.
    for (unsigned regs : {160u, 128u, 112u, 96u}) {
        auto params = core::CoreParams::unlimited();
        params.physIntRegs = regs;
        configs.push_back({strprintf("%u regs, 16R/8W", regs), params});
    }

    // Read port sweep at 112 regs.
    for (unsigned rd : {16u, 8u, 4u}) {
        auto params = core::CoreParams::unlimited();
        params.physIntRegs = 112;
        params.intRfReadPorts = rd;
        configs.push_back({strprintf("112 regs, %uR/8W", rd), params});
    }

    // Write port sweep at 112 regs, 8 read ports.
    for (unsigned wr : {8u, 6u, 4u}) {
        auto params = core::CoreParams::unlimited();
        params.physIntRegs = 112;
        params.intRfReadPorts = 8;
        params.intRfWritePorts = wr;
        configs.push_back({strprintf("112 regs, 8R/%uW", wr), params});
    }

    auto runs = args.runSuites(workloads::intSuite(), configs);
    const auto &unlimited = runs[0];

    Table table("relative IPC vs unlimited (160 regs, 16R/8W)");
    table.setColumns({"configuration", "relative IPC"});
    for (size_t i = 1; i < configs.size(); ++i) {
        table.addRow({configs[i].first,
                      Table::pct(sim::meanRelativeIpc(runs[i], unlimited),
                                 2)});
    }

    bench::printTable(table, args);
    args.writeReport();
    return 0;
}
