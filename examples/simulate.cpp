/**
 * @file
 * Full-surface simulator driver: any workload, any register file
 * organization, every option — the binary a downstream user scripts
 * against. Core and window keys are sim::configureRun()'s, as in
 * carf_sweep files; an unknown or inapplicable key is fatal.
 *
 * Usage examples:
 *   simulate workload=pointer_chase config=content-aware insts=1000000
 *   simulate workload=crc config=baseline fast_forward=500000 insts=500000
 *   simulate workload=graph_walk config=content-aware d_plus_n=24 long=56
 *            stall=4 oracle=16
 *   simulate workload=crc config=port-reduction shared_read_ports=3
 *   simulate workload=counters smt_with=crc config=content-aware
 *   simulate list=1                  # list available workloads
 */

#include <cstdio>

#include "common/config.hh"
#include "energy/report.hh"
#include "sim/reporting.hh"
#include "sim/simulator.hh"

using namespace carf;

namespace
{

void
printResult(const core::RunResult &result,
            const core::CoreParams &params)
{
    std::printf("%s\n", sim::summarizeRun(result).c_str());
    const auto &counts = result.intRfAccesses;
    std::printf("  int RF reads  %llu (simple %llu, short %llu, "
                "long %llu)\n",
                (unsigned long long)counts.totalReads(),
                (unsigned long long)counts.reads[0],
                (unsigned long long)counts.reads[1],
                (unsigned long long)counts.reads[2]);
    std::printf("  int RF writes %llu (simple %llu, short %llu, "
                "long %llu)\n",
                (unsigned long long)counts.totalWrites(),
                (unsigned long long)counts.writes[0],
                (unsigned long long)counts.writes[1],
                (unsigned long long)counts.writes[2]);
    // Only a file with a value taxonomy classifies operands (Table 4).
    if (result.cluster.localOperands > 0) {
        std::printf("  long stalls %llu, recoveries %llu, avg live "
                    "long %.1f, avg live short %.1f\n",
                    (unsigned long long)result.longAllocStalls,
                    (unsigned long long)result.recoveries,
                    result.avgLiveLong, result.avgLiveShort);
        double rf_energy = energy::FileCost(params).energy(
            counts, result.shortFileWrites);
        double base_energy =
            energy::FileCost(core::CoreParams::baseline()).energy(counts, 0);
        std::printf("  RF energy vs same-traffic baseline file: "
                    "%.1f%%\n", 100.0 * rf_energy / base_energy);
    }
    for (unsigned t = 0; t < result.smtThreadIpc.size(); ++t) {
        std::printf("  thread %u: %llu insts (IPC %.3f)\n", t,
                    (unsigned long long)result.smtThreadInsts[t],
                    result.smtThreadIpc[t]);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);

    const bool list = config.getBool("list", false);
    const std::string workload_name =
        config.getString("workload", "counters");
    sim::SimOptions options;
    options.maxInsts = 1000000;
    core::CoreParams params = sim::configureRun(config, options);
    options.oracleSamplePeriod = config.getU32("oracle", 0);
    if (config.has("smt_with")) {
        params.smtThreads = 2;
        options.smtMix = {config.getString("smt_with")};
    }
    config.rejectUnreadKeys("simulate");

    if (list) {
        std::printf("workloads:\n");
        for (const auto &w : workloads::allWorkloads()) {
            std::printf("  %-16s (%s)\n", w.name.c_str(),
                        workloads::suiteName(w.suite));
        }
        return 0;
    }

    std::printf("config: %s\n", sim::describeConfig(params).c_str());

    sim::LiveValueOracle oracle;
    sim::LiveValueOracle *observer =
        options.oracleSamplePeriod > 0 ? &oracle : nullptr;
    core::RunResult result =
        sim::simulate(workloads::findWorkload(workload_name), params,
                      options, observer);
    printResult(result, params);

    if (observer) {
        std::printf("  live values: %.1f regs/cycle; exact group-1 "
                    "%.1f%%; d=16 group-1 %.1f%%\n",
                    oracle.avgLiveRegs(),
                    100.0 * oracle.exactGroups().fraction(0),
                    100.0 * oracle.similarityGroups(2).fraction(0));
    }
    return 0;
}
