/**
 * @file
 * The benchmark's four workloads: which kernels, configurations and
 * library entry points each one runs, how one round of it executes
 * under its caller model, and the per-job correctness checks.
 */

#ifndef PERFBENCH_PLAN_HH
#define PERFBENCH_PLAN_HH

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/core_stats.hh"
#include "core/params.hh"
#include "emu/trace_cache.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using carf::u64;

class Tracer;

inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Which public entry point a workload drives. */
enum class Mode
{
    Solo,    //!< serial sim::simulate()
    Runner,  //!< one sim::ExperimentRunner::run() batch per round
    Smt,     //!< serial sim::simulateSmt()
    Sampled, //!< serial sim::simulateSampled()
};

/** One simulation of a round. */
struct Job
{
    /** Unique within the workload; orders the result digest. */
    std::string label;
    carf::workloads::Workload workload;
    carf::core::CoreParams params;
    /** SMT partner workloads (SimOptions::smtMix). */
    std::vector<std::string> partners;
};

struct Plan
{
    std::string name;
    Mode mode = Mode::Solo;
    u64 seed = 0;
    /** Instruction budget per job (per thread for SMT). */
    u64 budget = 0;
    /** Run options shared by every job (caches attached per round). */
    carf::sim::SimOptions options;
    /** Materialise traces through a TraceCache during set-up. */
    bool useCache = false;
    /** Runner worker threads; 1 for the serial callers. */
    unsigned workers = 1;
    /** Every distinct kernel the jobs run (leads and SMT partners). */
    std::vector<carf::workloads::Workload> kernels;
    /** Submission order. */
    std::vector<Job> jobs;
};

/** Names accepted by makePlan(), in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for workload seed @p seed. The seed adds one
 * buildSynthetic({seed}) kernel named "synth_s<seed>" and permutes the
 * submission order (runner) or SMT pairings; the named kernels are
 * fixed. @p tiny shrinks every budget for smoke testing. fatal() on an
 * unknown name.
 */
Plan makePlan(const std::string &name, u64 seed, bool tiny);

/**
 * Content-aware core for @p threads SMT threads, with the rename pools
 * grown by one architectural register set per thread (as in
 * bench/ablation_smt).
 */
carf::core::CoreParams smtParams(unsigned threads);

/** The run options of @p job under @p plan, caches attached. */
carf::sim::SimOptions jobOptions(const Plan &plan, const Job &job,
                                 carf::emu::TraceCache *cache,
                                 carf::sim::ResultStore *store);

/** State built before the timed phase. */
struct Setup
{
    std::unique_ptr<carf::emu::TraceCache> cache;
    std::unique_ptr<carf::sim::ResultStore> store;
    /** Trace records available per kernel (the budget unless cached
     *  traces show the program halting earlier). */
    std::map<std::string, u64> traceLen;
    /** Kernels whose trace the cache declined to materialise. */
    u64 fallbacks = 0;
    /** Host seconds: the whole set-up, and its trace acquires. */
    double seconds = 0.0;
    double acquireSeconds = 0.0;
};

/**
 * Set up @p plan: build every kernel's program (Workload::build),
 * materialise the traces through a fresh TraceCache when the plan uses
 * one, and open a fresh result store in @p store_dir for the runner.
 * With @p tracer, each step is recorded as a span.
 */
Setup runSetup(const Plan &plan, const std::string &store_dir,
               Tracer *tracer);

/** One round of @p plan through its public entry point. */
std::vector<carf::core::RunResult> runRound(const Plan &plan,
                                            const Setup &setup);

/**
 * Simulated instructions one result counts for sim_minst_per_s:
 * committed instructions (summed over threads for SMT), or for a
 * sampled run every trace instruction advanced.
 */
u64 simulatedWork(const Plan &plan, const carf::core::RunResult &result);

/** Empty when @p result passes every per-job check, else why not. */
std::string checkResult(const Plan &plan, const Setup &setup,
                        const Job &job,
                        const carf::core::RunResult &result);

/**
 * SHA-256 over the jobs' host-time-stripped full-fidelity JSON, taken
 * in label order so it does not depend on submission order.
 */
std::string resultDigest(const Plan &plan,
                         const std::vector<carf::core::RunResult> &results);

/** The host-time-stripped full-fidelity JSON of @p result. */
std::string strippedJson(const carf::core::RunResult &result);

} // namespace perfbench

#endif // PERFBENCH_PLAN_HH
