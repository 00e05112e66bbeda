/**
 * @file
 * §4 sensitivity studies and the DESIGN.md ablations:
 *  - Short file size (2 / 8 / 32 entries; paper picks 8),
 *  - Long file size (40 / 48 / 56 / 112; paper picks 48, noting FP
 *    wants 56 and 40 costs 0.6% IPC),
 *  - Short allocation policy (address-only vs any-result; the paper
 *    reports any-result thrashes),
 *  - direct-mapped vs fully-associative Short file,
 *  - issue-stall threshold (pseudo-deadlock avoidance) and the extra
 *    bypass level.
 *
 * All variants run as one job batch per suite: each workload's
 * trace is emulated once into the shared trace cache and replayed
 * for every variant.
 */

#include "bench_util.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("ablation_sizes", argc, argv);
    args.readRegfileKey();
    args.rejectUnreadKeys();
    bench::printHeader(
        "Ablations: sub-file sizing and design choices (d+n=20)",
        "paper picks M=8, K=48; address-only Short allocation; "
        "direct-mapped Short; threshold = issue width");

    std::vector<std::pair<std::string, core::CoreParams>> variants;

    // Short file size sweep (n = log2 M). d is adjusted to keep
    // d+n=20 so the Simple field width is constant.
    for (unsigned n : {1u, 3u, 5u}) {
        variants.push_back({strprintf("short M=%u", 1u << n),
                            core::CoreParams::contentAware(20, n)});
    }

    // Long file size sweep.
    for (unsigned k : {40u, 48u, 56u, 112u}) {
        variants.push_back({strprintf("long K=%u", k),
                            core::CoreParams::contentAware(20, 3, k)});
    }

    // Allocation policy: any-result thrashes the Short file.
    {
        auto params = core::CoreParams::contentAware(20);
        params.ca.allocShortOnAnyResult = true;
        variants.push_back({"alloc-on-any-result", params});
    }

    // Fully-associative Short file (paper: tiny IPC gain, CAM cost).
    {
        auto params = core::CoreParams::contentAware(20);
        params.ca.associativeShort = true;
        variants.push_back({"associative short", params});
    }

    // Issue-stall threshold off: recoveries must absorb the pressure.
    {
        auto params = core::CoreParams::contentAware(20);
        params.ca.issueStallThreshold = 0;
        variants.push_back({"stall threshold=0", params});
    }

    // Extra bypass level off (paper: optional, small effect).
    {
        auto params = core::CoreParams::contentAware(20);
        params.extraBypassLevel = false;
        variants.push_back({"no extra bypass", params});
    }

    std::vector<std::pair<std::string, core::CoreParams>> int_configs = {
        {"baseline INT", core::CoreParams::baseline()},
    };
    std::vector<std::pair<std::string, core::CoreParams>> fp_configs = {
        {"baseline FP", core::CoreParams::baseline()},
    };
    for (const auto &[label, params] : variants) {
        int_configs.push_back({label + " INT", params});
        fp_configs.push_back({label + " FP", params});
    }

    auto int_runs = args.runSuites(workloads::intSuite(), int_configs);
    auto fp_runs = args.runSuites(workloads::fpSuite(), fp_configs);
    const auto &base_int = int_runs[0];
    const auto &base_fp = fp_runs[0];

    Table table("relative IPC vs baseline, long-file pressure");
    table.setColumns({"variant", "INT", "FP", "long stalls",
                      "recoveries", "avg live long"});
    for (size_t i = 0; i < variants.size(); ++i) {
        const auto &run_int = int_runs[1 + i];
        const auto &run_fp = fp_runs[1 + i];
        table.addRow(
            {variants[i].first,
             Table::pct(sim::meanRelativeIpc(run_int, base_int), 2),
             Table::pct(sim::meanRelativeIpc(run_fp, base_fp), 2),
             Table::intNum(static_cast<long long>(
                 run_int.totalLongAllocStalls() +
                 run_fp.totalLongAllocStalls())),
             Table::intNum(static_cast<long long>(
                 run_int.totalRecoveries() + run_fp.totalRecoveries())),
             Table::num(run_int.meanAvgLiveLong(), 1)});
    }

    bench::printTable(table, args);
    args.writeReport();
    return 0;
}
