#include "sim/simulator.hh"

#include <algorithm>
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
 * trace — both end the episode; the engine needs to). A window that
 * closes exactly where the trace ends is not yet exhausted, in
 * next() and fillWarm() alike: the next pull finds that out.
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

    size_t
    fillWarm(std::span<emu::DynOp> out) override
    {
        if (exhausted_)
            return 0;
        size_t want = std::min<u64>(out.size(), left_);
        size_t got = want ? inner_->fillWarm(out.first(want)) : 0;
        left_ -= got;
        exhausted_ = got < want;
        return got;
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
    if (fastForward > ~u64{0} - maxInsts) {
        fatal("SimOptions: fastForward (%llu) + maxInsts (%llu) "
              "overflows a 64-bit record count",
              (unsigned long long)fastForward,
              (unsigned long long)maxInsts);
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
    // Compared without the sum, which could wrap.
    if (samplingWarmup > samplingPeriod ||
        samplingMeasure > samplingPeriod - samplingWarmup) {
        fatal("SimOptions: samplingWarmup (%llu) + samplingMeasure "
              "(%llu) exceeds samplingPeriod (%llu)",
              (unsigned long long)samplingWarmup,
              (unsigned long long)samplingMeasure,
              (unsigned long long)samplingPeriod);
    }
}

void
configureWindow(const Config &config, SimOptions &options)
{
    options.maxInsts = config.getU64("insts", options.maxInsts);
    options.fastForward = config.getU64("fast_forward", options.fastForward);
    options.fastPath = config.getBool("fast_path", options.fastPath);
    options.samplingPeriod =
        config.getU64("sampling_period", options.samplingPeriod);
    options.samplingWarmup =
        config.getU64("sampling_warmup", options.samplingWarmup);
    options.samplingMeasure =
        config.getU64("sampling_measure", options.samplingMeasure);
    options.validate();
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
    configureWindow(config, options);
    return params;
}

std::shared_ptr<emu::TraceCache>
configureTraceCache(const Config &config)
{
    if (!config.getBool("trace_cache", true))
        return nullptr;
    u64 budget_mb = config.getU64("trace_cache_mb",
                                  emu::TraceCache::kDefaultByteBudget >> 20);
    if (budget_mb > ~u64{0} >> 20)
        fatal("trace_cache_mb=%llu MiB overflows a 64-bit byte count "
              "(max %llu)", (unsigned long long)budget_mb,
              (unsigned long long)(~u64{0} >> 20));
    return std::make_shared<emu::TraceCache>(budget_mb << 20);
}

core::RunResult
runSampled(core::Pipeline &pipeline, core::FetchStream &predicted,
           const SimOptions &options)
{
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

core::RunResult
simulate(const workloads::Workload &workload,
         const core::CoreParams &params, const SimOptions &options,
         LiveValueOracle *oracle)
{
    unsigned threads = params.smtThreads > 0 ? params.smtThreads : 1;
    options.validate(threads);

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
    core::Pipeline pipeline(params, threads);
    pipeline.setFastPath(options.fastPath);
    core::RunResult result;
    if (options.samplingPeriod > 0) {
        core::PredictingFetchStream predicted(lead, params);
        result = runSampled(pipeline, predicted, options);
    } else if (threads > 1) {
        std::vector<emu::TraceSource *> sources;
        for (const AcquiredTrace &trace : traces)
            sources.push_back(trace.source.get());
        result = pipeline.run(sources).aggregate();
    } else {
        // One front end spans the warm-up and the window, so the
        // predictors stay warm across both.
        core::PredictingFetchStream predicted(lead, params);
        if (options.fastForward > 0) {
            core::Pipeline::WarmupScratch scratch;
            pipeline.warmUpRange(predicted, options.fastForward, scratch);
            pipeline.installWarmState(scratch);
        }
        result = pipeline.run(predicted, oracle, options.oracleSamplePeriod);
    }
    chargeHostTime(result, traces, sim_start);
    return result;
}

} // namespace carf::sim
