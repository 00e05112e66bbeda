#include "sim/simulator.hh"

#include <chrono>
#include <cmath>
#include <memory>
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
 * Wraps a streaming trace source and accumulates the host time spent
 * producing records, so the emulation cost interleaved with the cycle
 * loop can be attributed to traceBuildSeconds instead of silently
 * inflating simSeconds (the buffered path measures its build up
 * front; this is the streaming path's equivalent).
 */
class TimedSource final : public emu::TraceSource
{
  public:
    explicit TimedSource(emu::TraceSource &inner) : inner_(&inner) {}

    bool
    next(emu::DynOp &out) override
    {
        auto start = std::chrono::steady_clock::now();
        bool ok = inner_->next(out);
        seconds_ += secondsSince(start);
        return ok;
    }

    std::string name() const override { return inner_->name(); }

    double seconds() const { return seconds_; }

  private:
    emu::TraceSource *inner_;
    double seconds_ = 0.0;
};

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
    if (lockstep) {
        fatal("SimOptions: statistical sampling cannot join lockstep "
              "groups; set lockstep = false for sampled runs");
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

    auto start = std::chrono::steady_clock::now();

    core::CoreParams run_params = params;
    run_params.oracleSamplePeriod = options.oracleSamplePeriod;

    u64 total_insts = options.fastForward + options.maxInsts;

    // Obtain the dynamic trace. With a cache, the (possibly shared)
    // buffer is materialized up front and replayed zero-copy; without
    // one, the emulator streams lazily inside the cycle loop exactly
    // as before.
    std::shared_ptr<const emu::TraceBuffer> buffer;
    if (options.traceCache) {
        buffer = options.traceCache->acquire(
            workload.name, total_insts, [&workload, total_insts] {
                return workloads::makeTrace(workload, total_insts);
            });
    }
    double trace_build_seconds = buffer ? secondsSince(start) : 0.0;

    auto sim_start = std::chrono::steady_clock::now();
    core::Pipeline pipeline(run_params);
    pipeline.setFastPath(options.fastPath);
    core::RunResult result;
    if (buffer) {
        emu::TraceBuffer::Cursor cursor(*buffer, total_insts);
        if (options.fastForward > 0)
            pipeline.warmUp(cursor, options.fastForward);
        result = pipeline.run(cursor, oracle);
        result.traceBuildSeconds = trace_build_seconds;
        result.simSeconds = secondsSince(sim_start);
    } else {
        // Streaming: emulation happens inside the cycle loop, so
        // meter it at the source to keep the simulate-vs-build split
        // honest.
        auto trace = workloads::makeTrace(workload, total_insts);
        TimedSource timed(*trace);
        if (options.fastForward > 0)
            pipeline.warmUp(timed, options.fastForward);
        result = pipeline.run(timed, oracle);
        result.traceBuildSeconds = timed.seconds();
        result.simSeconds =
            secondsSince(sim_start) - result.traceBuildSeconds;
    }

    result.wallSeconds = result.traceBuildSeconds + result.simSeconds;
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

    auto start = std::chrono::steady_clock::now();

    // Resolve the per-thread workload list: thread 0 runs the job's
    // workload, partners cycle through the mix.
    std::vector<const workloads::Workload *> mix(num_threads, &workload);
    if (!options.smtMix.empty()) {
        for (unsigned t = 1; t < num_threads; ++t)
            mix[t] = &workloads::findWorkload(
                options.smtMix[(t - 1) % options.smtMix.size()]);
    }

    // Obtain one trace per thread. Each thread gets its own source
    // over its own functional memory; with a cache, threads running
    // the same workload share the underlying buffer through distinct
    // cursors.
    std::vector<std::shared_ptr<const emu::TraceBuffer>> buffers;
    std::vector<std::unique_ptr<emu::TraceBuffer::Cursor>> cursors;
    std::vector<std::unique_ptr<emu::TraceSource>> streams;
    std::vector<std::unique_ptr<TimedSource>> timed;
    std::vector<emu::TraceSource *> sources(num_threads, nullptr);
    for (unsigned t = 0; t < num_threads; ++t) {
        const workloads::Workload &w = *mix[t];
        std::shared_ptr<const emu::TraceBuffer> buffer;
        if (options.traceCache) {
            buffer = options.traceCache->acquire(
                w.name, options.maxInsts, [&w, &options] {
                    return workloads::makeTrace(w, options.maxInsts);
                });
        }
        if (buffer) {
            cursors.push_back(std::make_unique<emu::TraceBuffer::Cursor>(
                *buffer, options.maxInsts));
            sources[t] = cursors.back().get();
            buffers.push_back(std::move(buffer));
        } else {
            streams.push_back(workloads::makeTrace(w, options.maxInsts));
            timed.push_back(std::make_unique<TimedSource>(*streams.back()));
            sources[t] = timed.back().get();
        }
    }
    double trace_build_seconds = secondsSince(start);

    auto sim_start = std::chrono::steady_clock::now();
    core::Pipeline pipeline(params, num_threads);
    pipeline.setFastPath(options.fastPath);
    core::SmtResult smt = pipeline.run(sources);
    core::RunResult result = smt.aggregate();

    double stream_seconds = 0.0;
    for (const auto &src : timed)
        stream_seconds += src->seconds();
    result.traceBuildSeconds = trace_build_seconds + stream_seconds;
    result.simSeconds = secondsSince(sim_start) - stream_seconds;
    result.wallSeconds = result.traceBuildSeconds + result.simSeconds;
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

    auto start = std::chrono::steady_clock::now();

    std::shared_ptr<const emu::TraceBuffer> buffer;
    if (options.traceCache) {
        buffer = options.traceCache->acquire(
            workload.name, options.maxInsts, [&workload, &options] {
                return workloads::makeTrace(workload, options.maxInsts);
            });
    }
    double trace_build_seconds = buffer ? secondsSince(start) : 0.0;

    auto sim_start = std::chrono::steady_clock::now();
    std::unique_ptr<emu::TraceSource> owned;
    std::unique_ptr<emu::TraceBuffer::Cursor> cursor;
    std::unique_ptr<TimedSource> metered;
    emu::TraceSource *source = nullptr;
    if (buffer) {
        cursor = std::make_unique<emu::TraceBuffer::Cursor>(
            *buffer, options.maxInsts);
        source = cursor.get();
    } else {
        owned = workloads::makeTrace(workload, options.maxInsts);
        metered = std::make_unique<TimedSource>(*owned);
        source = metered.get();
    }

    core::Pipeline pipeline(params);
    pipeline.setFastPath(options.fastPath);
    core::PredictingFetchStream predicted(*source, params);
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

    if (metered) {
        result.traceBuildSeconds = metered->seconds();
        result.simSeconds =
            secondsSince(sim_start) - result.traceBuildSeconds;
    } else {
        result.traceBuildSeconds = trace_build_seconds;
        result.simSeconds = secondsSince(sim_start);
    }
    result.wallSeconds = result.traceBuildSeconds + result.simSeconds;
    return result;
}

} // namespace carf::sim
