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

    // Energy/area/time comparison from the Rixner-style model.
    energy::RixnerModel model;
    auto base_geom = energy::baselineGeometry();
    auto ca_geom = energy::caGeometry(ca_params.physIntRegs,
                                      ca_params.ca);

    double base_energy =
        energy::conventionalEnergy(model, base_geom,
                                   baseline.intRfAccesses);
    double ca_energy = energy::contentAwareEnergy(
        model, ca_geom, ca.intRfAccesses, ca.shortFileWrites);
    std::printf("register file energy vs baseline: %.1f%%\n",
                100.0 * ca_energy / base_energy);

    double base_area = model.area(base_geom);
    double ca_area = energy::caTotalArea(model, ca_geom);
    std::printf("register file area vs baseline: %.1f%%\n",
                100.0 * ca_area / base_area);

    double base_time = model.accessTime(base_geom);
    double ca_time = energy::caMaxAccessTime(model, ca_geom);
    double freq_gain = sim::potentialFrequencyGain(base_time, ca_time);
    std::printf("access time vs baseline: %.1f%% "
                "(potential clock gain %.1f%%)\n",
                100.0 * ca_time / base_time, 100.0 * freq_gain);
    std::printf("frequency-scaled speedup estimate: %+.1f%%\n",
                100.0 * sim::frequencyScaledSpeedup(rel_ipc, freq_gain));
    return 0;
}
