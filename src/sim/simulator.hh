/**
 * @file
 * Top-level simulation facade: one call, simulate(), runs one workload
 * on one core configuration, solo, SMT or sampled. This is the
 * library's primary entry point.
 */

#ifndef CARF_SIM_SIMULATOR_HH
#define CARF_SIM_SIMULATOR_HH

#include "core/pipeline.hh"
#include "emu/trace_cache.hh"
#include "sim/oracle.hh"
#include "workloads/workload.hh"

namespace carf
{
class Config;
}

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
     * cycles/IPC/cycle buckets cover the measured windows only (the
     * buckets still sum to cycles); the sampling* result fields hold
     * the interval shape and count, the skipped instructions and the
     * 95% confidence half-width over per-interval IPCs. Other counters
     * (bypass mix, register-file accesses, branch statistics) cover
     * every detailed instruction, warm-up and measured: orientation,
     * not calibrated estimates. One thread only; excludes the oracle
     * and fastForward (validate()).
     */
    u64 samplingPeriod = 0;
    /** Detailed warm-up instructions at the head of each episode. */
    u64 samplingWarmup = 2000;
    /** Measured detailed instructions following the warm-up. */
    u64 samplingMeasure = 1000;

    /**
     * Fatal on every combination simulate() cannot honour on a core of
     * @p threads threads: sampling with the oracle, fast-forward or
     * T > 1, a malformed sampling interval, and fast-forward or the
     * oracle with T > 1. The one place these combinations are checked.
     */
    void validate(unsigned threads = 1) const;
};

/**
 * The core configuration and run window a key=value command line, or
 * one carf_sweep grid point, asks for; the one spelling of each knob:
 *   config=NAME (default @p default_backend)
 *   phys_int_regs=N read_ports=N write_ports=N
 *   d_plus_n=N n=N long=N stall=N assoc_short=B alloc_any=B
 *   extra_bypass=B (content-aware only), shared_read_ports=N
 *   (port-reduction only), insts=N fast_forward=N (into @p options,
 *   whose values are the defaults).
 * Another backend's keys stay unread, so Config::rejectUnreadKeys()
 * rejects them. Unknown backends, 32-bit knobs past 2^32-1, signs and
 * n >= d_plus_n are fatal.
 */
core::CoreParams configureRun(const Config &config, SimOptions &options,
                              const std::string &default_backend =
                                  "baseline");

/**
 * Simulate @p workload on a core configured by @p params; the one
 * entry point for every kind of run:
 *  - params.smtThreads = T > 1 runs the T-thread core
 *    (core/pipeline.hh): thread 0 runs @p workload, partners run
 *    options.smtMix, and the result is the aggregate RunResult
 *    (summed per-thread counters plus the smt* fields);
 *  - options.samplingPeriod > 0 runs the SMARTS sampler (see there);
 *  - otherwise the solo pipeline, after options.fastForward.
 * Fatal on the combinations SimOptions::validate() rejects.
 *
 * @param oracle optional live-value oracle (requires
 *        options.oracleSamplePeriod > 0 to receive samples)
 */
core::RunResult simulate(const workloads::Workload &workload,
                         const core::CoreParams &params,
                         const SimOptions &options = {},
                         LiveValueOracle *oracle = nullptr);

/** Former names of simulate(), kept for perfbench only. */
inline core::RunResult
simulateSmt(const workloads::Workload &workload,
            const core::CoreParams &params, const SimOptions &options = {})
{
    return simulate(workload, params, options);
}
inline core::RunResult
simulateSampled(const workloads::Workload &workload,
                const core::CoreParams &params, const SimOptions &options)
{
    return simulate(workload, params, options);
}

} // namespace carf::sim

#endif // CARF_SIM_SIMULATOR_HH
