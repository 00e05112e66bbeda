/**
 * @file
 * Google-benchmark microbenchmarks of the trace subsystem: trace
 * build (emulate + encode) cost, emulator construction (the data
 * segment preload into the paged memory image), zero-copy cursor
 * replay vs streaming emulation throughput (build and replay also
 * report time and resident bytes per record), the cost of metering
 * streamed emulation per record vs per block (MeteredSource),
 * functional warm-up (Pipeline::warmUpRange) over whole blocks vs one
 * record at a time, and the headline experiment-engine number — a 4-configuration sweep over
 * the full workload suite with and without the shared TraceCache. The
 * sweep pair is the before/after evidence for the cache: "Streaming"
 * pays one emulation per (config, workload) job, "Cached" pays one
 * per workload.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "emu/emulator.hh"
#include "emu/trace_buffer.hh"
#include "emu/trace_cache.hh"
#include "sim/experiment_runner.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace carf;

namespace
{

/** Instruction budget per workload for the sweep benchmarks. */
constexpr u64 kSweepInsts = 200000;

/** The sweep's configuration axis (baseline + three d+n points). */
std::vector<core::CoreParams>
sweepConfigs()
{
    return {
        core::CoreParams::baseline(),
        core::CoreParams::contentAware(16),
        core::CoreParams::contentAware(20),
        core::CoreParams::contentAware(24),
    };
}

/**
 * Report host time per record (seconds, printed with an SI prefix)
 * and the encoding's resident bytes per record of @p buffer, after
 * @p state's loop.
 */
void
reportPerRecord(benchmark::State &state, const emu::TraceBuffer &buffer)
{
    state.counters["time_per_record"] = benchmark::Counter(
        static_cast<double>(state.items_processed()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["B_per_record"] =
        static_cast<double>(buffer.memoryBytes()) / buffer.size();
}

void
BM_TraceBuild(benchmark::State &state)
{
    // Emulate + encode one workload into a TraceBuffer: the one-time
    // cost a cache hit amortizes away.
    const auto &w = workloads::findWorkload("hash_table");
    u64 insts = static_cast<u64>(state.range(0));
    std::unique_ptr<emu::TraceBuffer> buffer;
    for (auto _ : state) {
        auto source = workloads::makeTrace(w, insts);
        buffer = emu::TraceBuffer::build(*source, w.name, insts);
        benchmark::DoNotOptimize(buffer->size());
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<i64>(buffer->size()));
    }
    reportPerRecord(state, *buffer);
}
BENCHMARK(BM_TraceBuild)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

void
BM_EmulatorConstruct(benchmark::State &state)
{
    // Construct an Emulator for mem_chase: preloading its 4 MiB data
    // segment into the paged memory image, before any instruction
    // runs. The program is assembled and copied outside the timed
    // region, so this is the segment load alone.
    const auto &w = workloads::findWorkload("mem_chase");
    const isa::Program program = w.build();
    std::unique_ptr<emu::Emulator> emulator;
    for (auto _ : state) {
        state.PauseTiming();
        emulator.reset(); // frees the previous image untimed
        isa::Program copy = program;
        state.ResumeTiming();
        emulator =
            std::make_unique<emu::Emulator>(std::move(copy), w.name);
        benchmark::DoNotOptimize(emulator->memory().pageCount());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_EmulatorConstruct)->Unit(benchmark::kMillisecond);

/** Drain @p source, counting records into @p state. */
void
drain(emu::TraceSource &source, benchmark::State &state)
{
    emu::DynOp op;
    u64 count = 0;
    while (source.next(op))
        ++count;
    benchmark::DoNotOptimize(count);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<i64>(count));
}

void
BM_StreamingEmulation(benchmark::State &state)
{
    // Baseline trace delivery rate: the functional emulator streaming
    // DynOps record by record.
    const auto &w = workloads::findWorkload("hash_table");
    u64 insts = static_cast<u64>(state.range(0));
    for (auto _ : state) {
        auto source = workloads::makeTrace(w, insts);
        drain(*source, state);
    }
}
BENCHMARK(BM_StreamingEmulation)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

/**
 * A meter with two clock reads around every record: the reference
 * point for MeteredSource's once-per-block reads.
 */
class PerRecordMeter final : public emu::TraceSource
{
  public:
    explicit PerRecordMeter(emu::TraceSource &inner) : inner_(&inner) {}

    bool
    next(emu::DynOp &out) override
    {
        auto start = std::chrono::steady_clock::now();
        bool ok = inner_->next(out);
        seconds_ += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        return ok;
    }

    std::string name() const override { return inner_->name(); }
    double seconds() const { return seconds_; }

  private:
    emu::TraceSource *inner_;
    double seconds_ = 0.0;
};

void
BM_StreamingMeteredPerRecord(benchmark::State &state)
{
    // Streaming emulation timed around every record. The difference
    // from BM_StreamingEmulation is the meter's per-record cost.
    const auto &w = workloads::findWorkload("hash_table");
    u64 insts = static_cast<u64>(state.range(0));
    for (auto _ : state) {
        auto source = workloads::makeTrace(w, insts);
        PerRecordMeter metered(*source);
        drain(metered, state);
        benchmark::DoNotOptimize(metered.seconds());
    }
}
BENCHMARK(BM_StreamingMeteredPerRecord)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

void
BM_StreamingMeteredPerChunk(benchmark::State &state)
{
    // Streaming emulation as simulate() delivers it: MeteredSource
    // fills a block of records between two clock reads.
    const auto &w = workloads::findWorkload("hash_table");
    u64 insts = static_cast<u64>(state.range(0));
    for (auto _ : state) {
        emu::MeteredSource metered(workloads::makeTrace(w, insts));
        drain(metered, state);
        benchmark::DoNotOptimize(metered.seconds());
    }
}
BENCHMARK(BM_StreamingMeteredPerChunk)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

void
BM_CursorReplay(benchmark::State &state)
{
    // Zero-copy replay rate from an already-built buffer (the per-run
    // trace cost after a cache hit). Compare against
    // BM_StreamingEmulation at the same record count.
    const auto &w = workloads::findWorkload("hash_table");
    u64 insts = static_cast<u64>(state.range(0));
    auto source = workloads::makeTrace(w, insts);
    auto buffer = emu::TraceBuffer::build(*source, w.name, insts);
    for (auto _ : state) {
        emu::TraceBuffer::Cursor cursor(*buffer);
        drain(cursor, state);
    }
    reportPerRecord(state, *buffer);
}
BENCHMARK(BM_CursorReplay)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

/** Only next(): takes FetchStream's per-record fillWarm(). */
class PerRecordFetch final : public core::FetchStream
{
  public:
    explicit PerRecordFetch(core::FetchStream &inner) : inner_(&inner) {}
    bool next(core::FetchEntry &out) override { return inner_->next(out); }
    std::string name() const override { return inner_->name(); }

  private:
    core::FetchStream *inner_;
};

void
BM_FunctionalWarmUp(benchmark::State &state)
{
    // Functional warm-up of a streamed trace, as the sampler's gaps
    // and fast-forward run it: emulation, branch training, the caches
    // and the Short file's address history. per_record=0 pulls whole
    // blocks through PredictingFetchStream::fillWarm(); per_record=1
    // wraps the same stream so warmUpRange() takes one record per
    // virtual next(). The pipeline is built outside the timed region.
    const auto &w = workloads::findWorkload("hash_table");
    u64 insts = static_cast<u64>(state.range(0));
    bool per_record = state.range(1) != 0;
    const core::CoreParams params = core::CoreParams::contentAware();
    for (auto _ : state) {
        state.PauseTiming();
        auto pipeline = std::make_unique<core::Pipeline>(params);
        emu::MeteredSource source(workloads::makeTrace(w, insts));
        core::PredictingFetchStream predicted(source, params);
        PerRecordFetch wrapped(predicted);
        core::FetchStream &stream =
            per_record ? static_cast<core::FetchStream &>(wrapped)
                       : predicted;
        core::Pipeline::WarmupScratch scratch;
        state.ResumeTiming();
        pipeline->warmUpRange(stream, insts, scratch);
        benchmark::DoNotOptimize(scratch.intVals.data());
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<i64>(insts));
    }
    state.counters["time_per_record"] = benchmark::Counter(
        static_cast<double>(state.items_processed()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FunctionalWarmUp)
    ->ArgNames({"records", "per_record"})
    ->Args({1 << 18, 0})
    ->Args({1 << 18, 1})
    ->Unit(benchmark::kMillisecond);

/** One 4-config x full-suite sweep on @p jobs workers. */
void
runSweep(unsigned jobs, emu::TraceCache *cache, benchmark::State &state)
{
    sim::SimOptions options;
    options.maxInsts = kSweepInsts;
    options.traceCache = cache;

    std::vector<sim::ExperimentJob> batch;
    for (const auto &params : sweepConfigs()) {
        for (const auto &w : workloads::allWorkloads())
            batch.push_back({w, params, options, "sweep", nullptr});
    }
    auto results = sim::ExperimentRunner(jobs).run(batch);
    u64 insts = 0;
    for (const auto &r : results)
        insts += r.committedInsts;
    benchmark::DoNotOptimize(insts);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<i64>(insts));
}

void
BM_SweepStreaming(benchmark::State &state)
{
    // The pre-cache experiment engine: every job re-emulates its
    // workload inside the cycle loop.
    for (auto _ : state)
        runSweep(static_cast<unsigned>(state.range(0)), nullptr, state);
}
BENCHMARK(BM_SweepStreaming)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_SweepCached(benchmark::State &state)
{
    // Same grid with a fresh shared cache per iteration: each
    // workload is emulated once, then replayed zero-copy by the other
    // configurations (results are bit-identical — see
    // tests/test_trace_buffer.cc).
    for (auto _ : state) {
        emu::TraceCache cache;
        runSweep(static_cast<unsigned>(state.range(0)), &cache, state);
    }
}
BENCHMARK(BM_SweepCached)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

} // namespace

// Expanded BENCHMARK_MAIN() that defaults --benchmark_out to the
// same per-harness JSON convention the other bench drivers use.
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    std::string out_flag = "--benchmark_out=BENCH_micro_tracecache.json";
    std::string format_flag = "--benchmark_out_format=json";
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0)
            has_out = true;
    }
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(format_flag.data());
    }
    int args_argc = static_cast<int>(args.size());
    benchmark::Initialize(&args_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
