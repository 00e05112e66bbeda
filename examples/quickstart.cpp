/**
 * @file
 * Quickstart: simulate one workload on the baseline and content-aware
 * register files and print the headline comparison.
 *
 * Usage: quickstart [workload=counters] [insts=500000] [d_plus_n=20]
 * plus the other content-aware and window keys of sim::configureRun().
 */

#include <cstdio>

#include "common/config.hh"
#include "common/logging.hh"
#include "energy/report.hh"
#include "sim/frequency.hh"
#include "sim/reporting.hh"
#include "sim/simulator.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);

    const std::string workload_name =
        config.getString("workload", "counters");
    if (config.has("config"))
        fatal("quickstart: config= is not a quickstart key; it always "
              "compares content-aware with baseline");
    sim::SimOptions options;
    options.maxInsts = 500000;
    auto ca_params = sim::configureRun(config, options, "content-aware");
    config.rejectUnreadKeys("quickstart");

    const auto &workload = workloads::findWorkload(workload_name);

    auto baseline_params = core::CoreParams::baseline();

    std::printf("workload: %s, budget: %llu instructions\n\n",
                workload_name.c_str(),
                (unsigned long long)options.maxInsts);

    auto baseline = sim::simulate(workload, baseline_params, options);
    auto ca = sim::simulate(workload, ca_params, options);

    std::printf("%s\n", sim::summarizeRun(baseline).c_str());
    std::printf("%s\n\n", sim::summarizeRun(ca).c_str());

    double rel_ipc = ca.ipc / baseline.ipc;
    std::printf("relative IPC (content-aware / baseline): %.4f\n",
                rel_ipc);

    // Energy/area/time comparison from the Rixner-style model, each
    // file at the ports and sizes it was simulated with.
    energy::FileCost base_file(baseline_params);
    energy::FileCost ca_file(ca_params);

    double base_energy =
        base_file.energy(baseline.intRfAccesses, baseline.shortFileWrites);
    double ca_energy = ca_file.energy(ca.intRfAccesses, ca.shortFileWrites);
    std::printf("register file energy vs baseline: %.1f%%\n",
                100.0 * ca_energy / base_energy);

    std::printf("register file area vs baseline: %.1f%%\n",
                100.0 * ca_file.area() / base_file.area());

    double base_time = base_file.accessTime();
    double ca_time = ca_file.accessTime();
    double freq_gain = sim::potentialFrequencyGain(base_time, ca_time);
    std::printf("access time vs baseline: %.1f%% "
                "(potential clock gain %.1f%%)\n",
                100.0 * ca_time / base_time, 100.0 * freq_gain);
    std::printf("frequency-scaled speedup estimate: %+.1f%%\n",
                100.0 * sim::frequencyScaledSpeedup(rel_ipc, freq_gain));
    return 0;
}
