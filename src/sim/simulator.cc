#include "sim/simulator.hh"

#include <chrono>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "core/pipeline.hh"

namespace carf::sim
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * One workload's trace, acquired for one run. With a trace cache the
 * buffer is materialized (or fetched) up front and replayed
 * zero-copy through a Cursor; without one, or when the cache
 * declines, the emulator streams through a MeteredSource inside the
 * cycle loop.
 */
struct AcquiredTrace
{
    /** Declared before source: a Cursor borrows the buffer. */
    std::shared_ptr<const emu::TraceBuffer> buffer;
    std::unique_ptr<emu::TraceSource> source;
    /** The streaming meter; null on the cached path. */
    const emu::MeteredSource *meter = nullptr;
    /** Host seconds spent acquiring: cache build or hit, or the
     *  program build ahead of streaming. */
    double buildSeconds = 0.0;
};

AcquiredTrace
acquireTrace(const workloads::Workload &workload, u64 budget,
             emu::TraceCache *cache)
{
    auto start = std::chrono::steady_clock::now();
    AcquiredTrace trace;
    if (cache) {
        trace.buffer = cache->acquire(
            workload.name, budget, [&workload, budget] {
                return workloads::makeTrace(workload, budget);
            });
    }
    if (trace.buffer) {
        trace.source = std::make_unique<emu::TraceBuffer::Cursor>(
            *trace.buffer, budget);
    } else {
        auto metered = std::make_unique<emu::MeteredSource>(
            workloads::makeTrace(workload, budget));
        trace.meter = metered.get();
        trace.source = std::move(metered);
    }
    trace.buildSeconds = secondsSince(start);
    return trace;
}

/**
 * The timing tail every entry point shares: acquisition plus metered
 * streaming is trace-build time, the rest of the run since
 * @p sim_start is simulation time.
 */
void
chargeHostTime(core::RunResult &result,
               std::span<const AcquiredTrace> traces,
               std::chrono::steady_clock::time_point sim_start)
{
    double elapsed = secondsSince(sim_start);
    double built = 0.0;
    double streamed = 0.0;
    for (const AcquiredTrace &trace : traces) {
        built += trace.buildSeconds;
        streamed += trace.meter ? trace.meter->seconds() : 0.0;
    }
    result.traceBuildSeconds = built + streamed;
    result.simSeconds = elapsed - streamed;
    result.wallSeconds = result.traceBuildSeconds + result.simSeconds;
}

/**
 * Caps the records one sampling phase may pull from the predicted
 * stream, and remembers when the underlying stream itself ran dry
 * (the pipeline cannot distinguish a closed window from a finished
 * trace — both end the episode; the engine needs to).
 */
class WindowedStream final : public core::FetchStream
{
  public:
    explicit WindowedStream(core::FetchStream &inner) : inner_(&inner)
    {
    }

    void allow(u64 n) { left_ = n; }
    u64 left() const { return left_; }
    bool exhausted() const { return exhausted_; }

    bool
    next(core::FetchEntry &out) override
    {
        if (left_ == 0 || exhausted_)
            return false;
        if (!inner_->next(out)) {
            exhausted_ = true;
            return false;
        }
        --left_;
        return true;
    }

    std::string name() const override { return inner_->name(); }

  private:
    core::FetchStream *inner_;
    u64 left_ = 0;
    bool exhausted_ = false;
};

} // namespace

void
SimOptions::validate() const
{
    if (samplingPeriod == 0)
        return;
    if (oracleSamplePeriod > 0) {
        fatal("SimOptions: statistical sampling is incompatible with "
              "the live-value oracle (oracleSamplePeriod > 0) — the "
              "oracle needs every cycle of one continuous window");
    }
    if (fastForward > 0) {
        fatal("SimOptions: fastForward overlaps the sampling engine's "
              "own functional gaps; use samplingPeriod/samplingWarmup/"
              "samplingMeasure alone");
    }
    if (samplingMeasure == 0)
        fatal("SimOptions: samplingMeasure must be > 0");
    if (samplingWarmup + samplingMeasure > samplingPeriod) {
        fatal("SimOptions: samplingWarmup + samplingMeasure (%llu) "
              "exceeds samplingPeriod (%llu)",
              (unsigned long long)(samplingWarmup + samplingMeasure),
              (unsigned long long)samplingPeriod);
    }
}

core::RunResult
simulate(const workloads::Workload &workload,
         const core::CoreParams &params, const SimOptions &options,
         LiveValueOracle *oracle)
{
    options.validate();
    if (options.samplingPeriod > 0)
        fatal("simulate: sampled runs go through simulateSampled()");

    core::CoreParams run_params = params;
    run_params.oracleSamplePeriod = options.oracleSamplePeriod;

    AcquiredTrace trace =
        acquireTrace(workload, options.fastForward + options.maxInsts,
                     options.traceCache);

    auto sim_start = std::chrono::steady_clock::now();
    core::Pipeline pipeline(run_params);
    pipeline.setFastPath(options.fastPath);
    if (options.fastForward > 0)
        pipeline.warmUp(*trace.source, options.fastForward);
    core::RunResult result = pipeline.run(*trace.source, oracle);
    chargeHostTime(result, {&trace, 1}, sim_start);
    return result;
}

core::RunResult
simulateSmt(const workloads::Workload &workload,
            const core::CoreParams &params, const SimOptions &options)
{
    unsigned num_threads = params.smtThreads > 0 ? params.smtThreads : 1;
    if (num_threads == 1)
        return simulate(workload, params, options);
    if (options.fastForward > 0)
        fatal("simulateSmt: fast-forward is a solo-pipeline feature");
    if (options.oracleSamplePeriod > 0)
        fatal("simulateSmt: the live-value oracle is a solo-pipeline "
              "feature");
    if (options.samplingPeriod > 0)
        fatal("simulateSmt: statistical sampling is a solo-pipeline "
              "feature");

    // Resolve the per-thread workload list: thread 0 runs the job's
    // workload, partners cycle through the mix.
    std::vector<const workloads::Workload *> mix(num_threads, &workload);
    if (!options.smtMix.empty()) {
        for (unsigned t = 1; t < num_threads; ++t)
            mix[t] = &workloads::findWorkload(
                options.smtMix[(t - 1) % options.smtMix.size()]);
    }

    // One trace per thread, each over its own functional memory; with
    // a cache, threads running the same workload share the underlying
    // buffer through distinct cursors.
    std::vector<AcquiredTrace> traces;
    std::vector<emu::TraceSource *> sources;
    for (const workloads::Workload *w : mix) {
        traces.push_back(
            acquireTrace(*w, options.maxInsts, options.traceCache));
        sources.push_back(traces.back().source.get());
    }

    auto sim_start = std::chrono::steady_clock::now();
    core::Pipeline pipeline(params, num_threads);
    pipeline.setFastPath(options.fastPath);
    core::RunResult result = pipeline.run(sources).aggregate();
    chargeHostTime(result, traces, sim_start);
    return result;
}

core::RunResult
simulateSampled(const workloads::Workload &workload,
                const core::CoreParams &params,
                const SimOptions &options)
{
    options.validate();
    if (options.samplingPeriod == 0)
        fatal("simulateSampled: samplingPeriod must be > 0");
    if (params.smtThreads > 1)
        fatal("simulateSampled: sampling is a solo-pipeline feature");

    AcquiredTrace trace =
        acquireTrace(workload, options.maxInsts, options.traceCache);

    auto sim_start = std::chrono::steady_clock::now();
    core::Pipeline pipeline(params);
    pipeline.setFastPath(options.fastPath);
    core::PredictingFetchStream predicted(*trace.source, params);
    WindowedStream window(predicted);

    pipeline.beginRun(workload.name);

    u64 gap = options.samplingPeriod - options.samplingWarmup -
              options.samplingMeasure;
    u64 measured_cycles = 0;
    u64 measured_insts = 0;
    u64 skipped_insts = 0;
    core::CycleAccounting measured_acc;
    std::vector<double> interval_ipc;

    while (!window.exhausted()) {
        // Functional gap: emulate through the predictor so the
        // caches, branch state, the Short file's address heuristics,
        // and the architectural register values all stay warm at zero
        // cycle cost.
        if (gap > 0) {
            core::Pipeline::WarmupScratch scratch;
            window.allow(gap);
            pipeline.warmUpRange(window, gap, scratch);
            skipped_insts += gap - window.left();
            if (window.exhausted())
                break;
            pipeline.installWarmState(scratch);
        }
        pipeline.resetForResume();

        // Detailed episode: the warm-up portion refills the pipeline
        // after the gap; the measured portion is delimited by commit
        // marks. The lane then drains (all fetched records commit),
        // so the next gap resumes from clean in-flight state.
        window.allow(options.samplingWarmup + options.samplingMeasure);
        u64 warm_mark =
            pipeline.committedInsts() + options.samplingWarmup;
        u64 end_mark = warm_mark + options.samplingMeasure;
        while (pipeline.active() &&
               pipeline.committedInsts() < warm_mark) {
            pipeline.stepCycle(window);
        }
        if (pipeline.committedInsts() < warm_mark)
            break; // trace dried inside the warm-up: nothing to measure

        Cycle c0 = pipeline.currentCycle();
        core::CycleAccounting a0 = pipeline.cycleAccounting();
        u64 i0 = pipeline.committedInsts();
        while (pipeline.active() &&
               pipeline.committedInsts() < end_mark) {
            pipeline.stepCycle(window);
        }
        u64 insts = pipeline.committedInsts() - i0;
        Cycle cycles = pipeline.currentCycle() - c0;
        const core::CycleAccounting &a1 = pipeline.cycleAccounting();
        for (unsigned b = 0; b < core::CycleAccounting::NumBuckets; ++b)
            measured_acc.counts[b] += a1.counts[b] - a0.counts[b];
        measured_insts += insts;
        measured_cycles += cycles;
        if (insts > 0 && cycles > 0) {
            interval_ipc.push_back(static_cast<double>(insts) /
                                   static_cast<double>(cycles));
        }

        // Drain any leftover in-flight work outside the measurement.
        while (pipeline.active())
            pipeline.stepCycle(window);
    }

    core::RunResult result = pipeline.finishRun();
    result.cycles = measured_cycles;
    result.committedInsts = measured_insts;
    result.ipc = measured_cycles
                     ? static_cast<double>(measured_insts) /
                           static_cast<double>(measured_cycles)
                     : 0.0;
    result.cycleAccounting = measured_acc;
    result.samplingPeriod = options.samplingPeriod;
    result.samplingWarmup = options.samplingWarmup;
    result.samplingMeasure = options.samplingMeasure;
    result.samplingIntervals = interval_ipc.size();
    result.samplingSkippedInsts = skipped_insts;
    if (interval_ipc.size() >= 2) {
        double mean = 0.0;
        for (double x : interval_ipc)
            mean += x;
        mean /= static_cast<double>(interval_ipc.size());
        double var = 0.0;
        for (double x : interval_ipc)
            var += (x - mean) * (x - mean);
        var /= static_cast<double>(interval_ipc.size() - 1);
        result.samplingIpcCi95 =
            1.96 * std::sqrt(var /
                             static_cast<double>(interval_ipc.size()));
    }

    chargeHostTime(result, {&trace, 1}, sim_start);
    return result;
}

} // namespace carf::sim
