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
 *   simulate workload=daxpy record=/tmp/daxpy.carftrc insts=200000
 *   simulate replay=/tmp/daxpy.carftrc config=content-aware
 *   simulate workload=counters smt_with=crc config=content-aware
 *   simulate list=1                  # list available workloads
 */

#include <cstdio>

#include "common/config.hh"
#include "core/pipeline.hh"
#include "emu/trace_file.hh"
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
    if (counts.totalWrites() == 0) {
        // SMT threads share one file; the counts ride on thread 0.
        return;
    }
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
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);

    sim::SimOptions options;
    options.maxInsts = 1000000;
    core::CoreParams params = sim::configureRun(config, options);
    options.oracleSamplePeriod = config.getU32("oracle", 0);
    const std::string workload_name =
        config.getString("workload", "counters");
    const std::string record = config.getString("record");
    const std::string replay = config.getString("replay");
    const std::string smt_with = config.getString("smt_with");
    const bool list = config.getBool("list", false);
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

    // Record mode: emulate and write a trace file, no timing.
    if (!record.empty()) {
        const auto &workload = workloads::findWorkload(workload_name);
        auto source = workloads::makeTrace(workload, options.maxInsts);
        u64 written = emu::TraceWriter::record(*source, record);
        std::printf("recorded %llu instructions of %s to %s\n",
                    (unsigned long long)written,
                    workload.name.c_str(), record.c_str());
        return 0;
    }

    // Replay mode: time a previously recorded trace.
    if (!replay.empty()) {
        emu::TraceReader reader(replay, "", options.maxInsts);
        core::Pipeline pipeline(params);
        auto result = pipeline.run(reader);
        printResult(result, params);
        return 0;
    }

    const auto &workload = workloads::findWorkload(workload_name);

    // SMT mode: co-run a second workload on a shared core.
    if (!smt_with.empty()) {
        const auto &other = workloads::findWorkload(smt_with);
        auto ta = workloads::makeTrace(workload, options.maxInsts);
        auto tb = workloads::makeTrace(other, options.maxInsts);
        core::SmtPipeline smt(params, 2);
        auto result = smt.run({ta.get(), tb.get()});
        std::printf("SMT (%llu shared cycles, aggregate IPC %.3f):\n",
                    (unsigned long long)result.cycles,
                    result.totalIpc());
        for (const auto &t : result.threads)
            printResult(t, params);
        return 0;
    }

    // Plain single-thread run, optionally with the value oracle.
    sim::LiveValueOracle oracle;
    bool use_oracle = options.oracleSamplePeriod > 0;
    auto result = sim::simulate(workload, params, options,
                                use_oracle ? &oracle : nullptr);
    printResult(result, params);

    if (use_oracle) {
        std::printf("  live values: %.1f regs/cycle; exact group-1 "
                    "%.1f%%; d=16 group-1 %.1f%%\n",
                    oracle.avgLiveRegs(),
                    100.0 * oracle.exactGroups().fraction(0),
                    100.0 * oracle.similarityGroups(2).fraction(0));
    }
    return 0;
}
