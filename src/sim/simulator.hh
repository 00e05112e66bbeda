/**
 * @file
 * Top-level simulation facade: one call simulates one workload on one
 * core configuration. This is the library's primary entry point.
 */

#ifndef CARF_SIM_SIMULATOR_HH
#define CARF_SIM_SIMULATOR_HH

#include "core/pipeline.hh"
#include "emu/trace_cache.hh"
#include "sim/oracle.hh"
#include "workloads/workload.hh"

namespace carf::sim
{

class ResultStore;

/** Run-level options independent of the core configuration. */
struct SimOptions
{
    /** Dynamic instruction budget (the paper simulated 300M). */
    u64 maxInsts = 2'000'000;
    /** Oracle sampling period in cycles; 0 disables sampling. */
    unsigned oracleSamplePeriod = 0;
    /**
     * Instructions to fast-forward (functional warm-up of caches,
     * predictor, Short file, and architectural state) before the
     * timed window — the SimPoint-style skip the paper used.
     */
    u64 fastForward = 0;
    /**
     * Optional shared trace cache. When set, the workload's dynamic
     * trace is built (or fetched) through the cache and replayed
     * zero-copy; statistics are bit-identical to streaming emulation.
     * When the trace cannot fit the cache's byte budget the run falls
     * back to streaming transparently (the cache logs the fallback).
     */
    emu::TraceCache *traceCache = nullptr;
    /**
     * Inert: nothing reads it and the result-store key excludes it.
     * Kept only because perfbench/src/plan.cc still assigns it; the
     * next benchmark change deletes that assignment and this field.
     */
    bool lockstep = true;
    /**
     * Optional content-addressed result cache (sim/result_store.hh).
     * ExperimentRunner::run() resolves each job's key against it
     * before simulating: a hit fills the result slot with the stored
     * bit-identical RunResult, a miss simulates and writes back. Jobs
     * carrying a live-value oracle bypass the store (a cache hit
     * would skip the oracle's samples). simulate() itself ignores
     * this field — read-through lives in the runner.
     */
    ResultStore *resultStore = nullptr;
    /**
     * Partner workloads for SMT runs (workload registry names; see
     * workloads::findWorkload()). Thread 0 always runs the job's own
     * workload; thread t > 0 runs smtMix[(t - 1) % smtMix.size()],
     * so a single partner name describes any thread count. Empty
     * means a homogeneous mix (every thread runs the job workload).
     * Ignored unless CoreParams::smtThreads > 1.
     */
    std::vector<std::string> smtMix;

    /**
     * Exact idle-cycle skip in the cycle loop (Pipeline fast path),
     * for solo and SMT runs alike. Results are bit-identical either
     * way; off is for differential tests and honest speedup
     * measurement.
     */
    bool fastPath = true;

    /**
     * SMARTS-style statistical sampling: instructions per sampling
     * period (0 = full detailed simulation). Each period runs
     * (period - warmup - measure) instructions functionally (caches,
     * predictor, and architectural state stay warm), then
     * samplingWarmup detailed instructions to refill the pipeline,
     * then samplingMeasure measured instructions. The reported
     * cycles/IPC/cycle buckets cover the measured windows only;
     * samplingIpcCi95 carries the 95% confidence half-width over
     * per-interval IPCs. Solo-pipeline only; excludes the oracle and
     * fastForward (validate()).
     */
    u64 samplingPeriod = 0;
    /** Detailed warm-up instructions at the head of each episode. */
    u64 samplingWarmup = 2000;
    /** Measured detailed instructions following the warm-up. */
    u64 samplingMeasure = 1000;

    /**
     * Fatal on incompatible option combinations (sampling with the
     * oracle, fast-forward, or a malformed interval shape).
     * Every simulate entry point calls this first.
     */
    void validate() const;
};

/**
 * Simulate @p workload on a core configured by @p params.
 *
 * @param oracle optional live-value oracle (requires
 *        options.oracleSamplePeriod > 0 to receive samples)
 */
core::RunResult simulate(const workloads::Workload &workload,
                         const core::CoreParams &params,
                         const SimOptions &options = {},
                         LiveValueOracle *oracle = nullptr);

/**
 * Simulate @p workload on a core with params.smtThreads hardware
 * threads (core/pipeline.hh). Thread 0 runs @p workload; partner
 * threads run options.smtMix (see SimOptions::smtMix). Returns the
 * aggregate RunResult (summed per-thread counters plus the smt*
 * fields). options.fastPath applies as in simulate().
 *
 * With smtThreads == 1 this delegates to simulate() — a one-thread
 * SMT job is by definition the solo pipeline, and the delegation
 * makes the T=1 column of any sweep bit-identical to a solo sweep.
 * Incompatible with fastForward, the live-value oracle and sampling
 * (all three are one-thread features); fatal if requested.
 */
core::RunResult simulateSmt(const workloads::Workload &workload,
                            const core::CoreParams &params,
                            const SimOptions &options = {});

/**
 * Simulate @p workload with SMARTS-style statistical sampling
 * (options.samplingPeriod > 0 required; see SimOptions). Returns a
 * RunResult whose cycles, committedInsts, ipc, and cycleAccounting
 * describe the measured windows only (the buckets still sum exactly
 * to cycles); the sampling* fields record the interval shape, the
 * interval count, the functionally skipped instructions, and the 95%
 * confidence half-width on IPC. All other counters (bypass mix,
 * register file accesses, branch statistics) cover every *detailed*
 * instruction — warm-up and measured — plus the handful of
 * architectural-value installs between episodes; they are reported
 * for orientation, not as calibrated estimates.
 */
core::RunResult simulateSampled(const workloads::Workload &workload,
                                const core::CoreParams &params,
                                const SimOptions &options);

} // namespace carf::sim

#endif // CARF_SIM_SIMULATOR_HH
