/**
 * @file
 * Cross-model comparison bench: every register-file backend in the
 * registry (or the regfile= selection) over the shared INT workload
 * suite, in one job batch. For each model the report
 * carries IPC, the per-sub-file access counts, model-level port
 * conflicts, and the Rixner energy/area/access-time numbers — all
 * obtained through the RegFileModel hooks (banks()/energyTerms()),
 * with no backend special cases, so a newly registered backend shows
 * up in the comparison with zero harness changes.
 *
 * Extra key (on top of the universal bench_util keys):
 *   regfile=NAME[,NAME...]  restrict the sweep to the named backends
 */

#include "bench_util.hh"

#include "energy/report.hh"
#include "regfile/registry.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("compare_backends", argc, argv);
    bench::printHeader(
        "Backend zoo: IPC / access / energy / area / delay per "
        "registered register-file model",
        "content-aware trades ~1-2% IPC for large energy and area "
        "wins; port reduction trades conflict stalls for ports");

    auto configs = args.backendConfigs();
    auto runs = args.runSuites(workloads::intSuite(), configs);

    // Normalize IPC against the unlimited model when it is part of
    // the sweep, otherwise against the first selected backend.
    size_t ref = 0;
    for (size_t c = 0; c < configs.size(); ++c)
        if (configs[c].first == "unlimited")
            ref = c;

    energy::RixnerModel model;

    Table table("backend comparison (INT suite)");
    table.setColumns({"backend", "IPC", "rel IPC", "RF reads",
                      "RF writes", "conflict cycles", "energy",
                      "area", "access time"});
    for (size_t c = 0; c < configs.size(); ++c) {
        const std::string &name = configs[c].first;
        const core::CoreParams &params = configs[c].second;
        const sim::SuiteRun &run = runs[c];

        auto rf = regfile::makeRegFile(name, params.regFileParams(),
                                       "compare");
        regfile::AccessCounts counts = run.totalAccesses();
        double joules = energy::modelEnergy(
            model, rf->energyTerms(counts, run.totalShortWrites()));
        double area = energy::modelArea(model, rf->banks());
        double access = energy::modelMaxAccessTime(model, rf->banks());
        u64 conflict_cycles = 0;
        for (const auto &r : run.results)
            conflict_cycles += r.portConflictCycles;

        table.addRow({name, strprintf("%.3f", run.meanIpc()),
                      Table::pct(sim::meanRelativeIpc(run, runs[ref]), 2),
                      strprintf("%llu",
                                (unsigned long long)counts.totalReads()),
                      strprintf("%llu",
                                (unsigned long long)counts.totalWrites()),
                      strprintf("%llu",
                                (unsigned long long)conflict_cycles),
                      strprintf("%.4g", joules),
                      strprintf("%.4g", area),
                      strprintf("%.4g", access)});
    }
    bench::printTable(table, args);

    Table geom("backend geometries (registry descriptions)");
    geom.setColumns({"backend", "description", "banks"});
    for (const auto &[name, params] : configs) {
        auto rf = regfile::makeRegFile(name, params.regFileParams(),
                                       "describe");
        std::string banks;
        for (const regfile::BankGeometry &b : rf->banks())
            banks += strprintf("%s%s %ux%ub %uR/%uW",
                               banks.empty() ? "" : "; ",
                               b.label.c_str(), b.entries, b.widthBits,
                               b.readPorts, b.writePorts);
        geom.addRow({name, regfile::registry().at(name).description,
                     banks});
    }
    bench::printTable(geom, args);

    args.writeReport();
    return 0;
}
