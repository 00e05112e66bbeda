#include "sim/simulator.hh"

#include <chrono>
#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"

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
 * The timing tail of every run: acquisition plus metered
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
SimOptions::validate(unsigned threads) const
{
    if (threads > 1 && fastForward > 0)
        fatal("SimOptions: fastForward warms one thread (smtThreads=%u)",
              threads);
    if (threads > 1 && oracleSamplePeriod > 0) {
        fatal("SimOptions: the live-value oracle observes one thread "
              "(smtThreads=%u)", threads);
    }
    if (samplingPeriod == 0)
        return;
    if (threads > 1) {
        fatal("SimOptions: statistical sampling runs one thread "
              "(smtThreads=%u)", threads);
    }
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

core::CoreParams
configureRun(const Config &config, SimOptions &options,
             const std::string &default_backend)
{
    std::string backend = config.getString("config", default_backend);
    regfile::registry().at(backend); // fatal on unknown names
    core::CoreParams params = core::CoreParams::forBackend(backend);
    params.physIntRegs = config.getU32("phys_int_regs", params.physIntRegs);
    params.intRfReadPorts =
        config.getU32("read_ports", params.intRfReadPorts);
    params.intRfWritePorts =
        config.getU32("write_ports", params.intRfWritePorts);
    if (backend == "content-aware") {
        auto &ca = params.ca;
        unsigned n = config.getU32("n", ca.sim.n());
        unsigned dn = config.getU32("d_plus_n", ca.sim.d() + ca.sim.n());
        if (n >= dn)
            fatal("d_plus_n=%u must exceed n=%u", dn, n);
        ca.sim = regfile::SimilarityParams(dn - n, n);
        ca.sim.validate();
        ca.longEntries = config.getU32("long", ca.longEntries);
        ca.issueStallThreshold =
            config.getU32("stall", ca.issueStallThreshold);
        ca.associativeShort =
            config.getBool("assoc_short", ca.associativeShort);
        ca.allocShortOnAnyResult =
            config.getBool("alloc_any", ca.allocShortOnAnyResult);
        params.extraBypassLevel =
            config.getBool("extra_bypass", params.extraBypassLevel);
    } else if (backend == "port-reduction") {
        params.portRed.sharedReadPorts = config.getU32(
            "shared_read_ports", params.portRed.sharedReadPorts);
        params.portRed.validate();
    }
    options.maxInsts = config.getU64("insts", options.maxInsts);
    options.fastForward = config.getU64("fast_forward", options.fastForward);
    return params;
}

namespace
{

/**
 * The SMARTS loop over one trace: alternate functional gaps with
 * detailed episodes on @p pipeline and report the measured windows
 * (see SimOptions::samplingPeriod).
 */
core::RunResult
runSampled(core::Pipeline &pipeline, emu::TraceSource &source,
           const core::CoreParams &params, const SimOptions &options)
{
    core::PredictingFetchStream predicted(source, params);
    WindowedStream window(predicted);

    pipeline.beginRun(window.name());

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

    return result;
}

} // namespace

core::RunResult
simulate(const workloads::Workload &workload,
         const core::CoreParams &params, const SimOptions &options,
         LiveValueOracle *oracle)
{
    unsigned threads = params.smtThreads > 0 ? params.smtThreads : 1;
    options.validate(threads);

    core::CoreParams run_params = params;
    run_params.oracleSamplePeriod = options.oracleSamplePeriod;

    // One trace per thread, each over its own functional memory:
    // thread 0 runs the job's workload, partners cycle through the
    // mix. With a cache, threads running the same workload share the
    // underlying buffer through distinct cursors.
    std::vector<AcquiredTrace> traces;
    for (unsigned t = 0; t < threads; ++t) {
        const workloads::Workload &w =
            t == 0 || options.smtMix.empty()
                ? workload
                : workloads::findWorkload(
                      options.smtMix[(t - 1) % options.smtMix.size()]);
        traces.push_back(acquireTrace(
            w, options.fastForward + options.maxInsts, options.traceCache));
    }
    emu::TraceSource &lead = *traces.front().source;

    auto sim_start = std::chrono::steady_clock::now();
    core::Pipeline pipeline(run_params, threads);
    pipeline.setFastPath(options.fastPath);
    core::RunResult result;
    if (options.samplingPeriod > 0) {
        result = runSampled(pipeline, lead, run_params, options);
    } else if (threads > 1) {
        std::vector<emu::TraceSource *> sources;
        for (const AcquiredTrace &trace : traces)
            sources.push_back(trace.source.get());
        result = pipeline.run(sources).aggregate();
    } else {
        if (options.fastForward > 0)
            pipeline.warmUp(lead, options.fastForward);
        result = pipeline.run(lead, oracle);
    }
    chargeHostTime(result, traces, sim_start);
    return result;
}

} // namespace carf::sim
