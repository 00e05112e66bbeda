/**
 * @file
 * The traced run (--trace 1): per-layer metrics.
 *
 * 1. Set-up runs once with spans around Workload::build and
 *    TraceCache::acquire (the cache builders' emulators are wrapped).
 * 2. One untraced round through the workload's own entry point gives
 *    the simulated per-layer statistics and the runner's utilisation.
 * 3. Each job is rebuilt as the chain its entry point builds (a trace
 *    source, PredictingFetchStream, then Pipeline::run; SmtPipeline::run
 *    over per-thread sources; or the sampling engine's loop over
 *    Pipeline::warmUpRange and stepCycle), run once without spans and
 *    once with them. The two wall times give trace.overhead_frac; both
 *    results must equal the entry point's, bit for bit.
 * 4. Standalone probes over a prefix of the workload's traces measure
 *    the register file, the cache hierarchy and result-store I/O, and
 *    any core or front-end layer the workload's own chains never enter
 *    (so every metric is measured on every workload; the README says
 *    which number comes from where).
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>

#include "bench.hh"
#include "common/fingerprint.hh"
#include "core/pipeline.hh"
#include "core/smt.hh"
#include "mem/hierarchy.hh"
#include "regfile/registry.hh"
#include "sim/reporting.hh"
#include "tracing.hh"

namespace perfbench
{

namespace core = carf::core;
namespace emu = carf::emu;
namespace isa = carf::isa;
namespace mem = carf::mem;
namespace regfile = carf::regfile;
namespace sim = carf::sim;
namespace workloads = carf::workloads;

namespace
{

/** Records per kernel replayed by the standalone probes. */
constexpr u64 kProbeRecords = 60'000;
/** Kernels the probes replay (the first ones of the workload). */
constexpr size_t kProbeKernels = 4;

/**
 * The sampling engine's record window (same contract as the one in
 * sim/simulator.cc), also counting the records it lets through.
 */
class WindowedStream final : public core::FetchStream
{
  public:
    explicit WindowedStream(core::FetchStream &inner) : inner_(&inner) {}

    void allow(u64 n) { left_ = n; }
    u64 left() const { return left_; }
    bool exhausted() const { return exhausted_; }
    u64 consumed() const { return consumed_; }

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
        ++consumed_;
        return true;
    }

    std::string name() const override { return inner_->name(); }

  private:
    core::FetchStream *inner_;
    u64 left_ = 0;
    u64 consumed_ = 0;
    bool exhausted_ = false;
};

/** A job's trace source: a cached-buffer cursor or a live emulator. */
struct Source
{
    std::shared_ptr<const emu::TraceBuffer> buffer;
    std::unique_ptr<emu::TraceBuffer::Cursor> cursor;
    std::unique_ptr<emu::TraceSource> stream;
    std::unique_ptr<SpanSource> span;
    emu::TraceSource *source = nullptr;
};

/** Obtain @p w's trace the way the entry points do. */
Source
openSource(const Plan &plan, const Setup &setup,
           const workloads::Workload &w, Tracer *tracer)
{
    Source s;
    if (setup.cache) {
        Scope span(tracer, Layer::Acquire);
        s.buffer = setup.cache->acquire(w.name, plan.budget, [&] {
            return workloads::makeTrace(w, plan.budget);
        });
    }
    Layer layer = Layer::Replay;
    if (s.buffer) {
        s.cursor = std::make_unique<emu::TraceBuffer::Cursor>(*s.buffer,
                                                              plan.budget);
        s.source = s.cursor.get();
    } else {
        s.stream = workloads::makeTrace(w, plan.budget);
        s.source = s.stream.get();
        layer = Layer::Emulate;
    }
    if (tracer) {
        s.span = std::make_unique<SpanSource>(*s.source, *tracer, layer);
        s.source = s.span.get();
    }
    return s;
}

core::RunResult
soloChain(const Plan &plan, const Setup &setup, const Job &job,
          Tracer *tracer)
{
    Source src = openSource(plan, setup, job.workload, tracer);
    core::PredictingFetchStream predicted(*src.source, job.params);
    std::unique_ptr<SpanFetch> fetch;
    core::FetchStream *stream = &predicted;
    if (tracer) {
        fetch = std::make_unique<SpanFetch>(predicted, *tracer);
        stream = fetch.get();
    }
    core::Pipeline pipeline(job.params);
    pipeline.setFastPath(plan.options.fastPath);
    core::RunResult r;
    {
        Scope span(tracer, Layer::Pipeline);
        r = pipeline.run(*stream);
    }
    if (tracer) {
        tracer->addItems(Layer::Pipeline, r.committedInsts);
        tracer->addCycles(Layer::Pipeline, r.cycles);
    }
    return r;
}

core::RunResult
smtChain(const Plan &plan, const Setup &setup, const Job &job,
         Tracer *tracer)
{
    unsigned threads = job.params.smtThreads;
    std::vector<Source> sources;
    std::vector<emu::TraceSource *> raw;
    for (unsigned t = 0; t < threads; ++t) {
        const workloads::Workload &w =
            t == 0 || job.partners.empty()
                ? job.workload
                : workloads::findWorkload(
                      job.partners[(t - 1) % job.partners.size()]);
        sources.push_back(openSource(plan, setup, w, tracer));
        raw.push_back(sources.back().source);
    }
    core::SmtPipeline pipeline(job.params, threads);
    core::SmtResult smt;
    {
        Scope span(tracer, Layer::Smt);
        smt = pipeline.run(raw);
    }
    core::RunResult r = smt.aggregate();
    if (tracer) {
        tracer->addItems(Layer::Smt, r.committedInsts);
        tracer->addCycles(Layer::Smt, r.cycles);
    }
    return r;
}

/**
 * The loop of sim::simulateSampled(), with Pipeline::warmUpRange and
 * the detailed episodes in their own spans. @p consumed receives the
 * trace records the run advanced through.
 */
core::RunResult
sampledChain(const Plan &plan, const Setup &setup, const Job &job,
             Tracer *tracer, u64 &consumed)
{
    const sim::SimOptions &o = plan.options;
    Source src = openSource(plan, setup, job.workload, tracer);
    core::Pipeline pipeline(job.params);
    pipeline.setFastPath(o.fastPath);
    core::PredictingFetchStream predicted(*src.source, job.params);
    std::unique_ptr<SpanFetch> fetch;
    core::FetchStream *stream = &predicted;
    if (tracer) {
        fetch = std::make_unique<SpanFetch>(predicted, *tracer);
        stream = fetch.get();
    }
    WindowedStream window(*stream);

    pipeline.beginRun(job.workload.name);
    u64 gap = o.samplingPeriod - o.samplingWarmup - o.samplingMeasure;
    u64 measured_cycles = 0;
    u64 measured_insts = 0;
    u64 skipped_insts = 0;
    core::CycleAccounting measured_acc;
    std::vector<double> interval_ipc;

    while (!window.exhausted()) {
        if (gap > 0) {
            core::Pipeline::WarmupScratch scratch;
            window.allow(gap);
            {
                Scope span(tracer, Layer::Warmup);
                pipeline.warmUpRange(window, gap, scratch);
            }
            skipped_insts += gap - window.left();
            if (window.exhausted())
                break;
            pipeline.installWarmState(scratch);
        }
        pipeline.resetForResume();

        Scope span(tracer, Layer::Pipeline);
        window.allow(o.samplingWarmup + o.samplingMeasure);
        u64 warm_mark = pipeline.committedInsts() + o.samplingWarmup;
        u64 end_mark = warm_mark + o.samplingMeasure;
        while (pipeline.active() && pipeline.committedInsts() < warm_mark)
            pipeline.stepCycle(window);
        if (pipeline.committedInsts() < warm_mark)
            break;

        carf::Cycle c0 = pipeline.currentCycle();
        core::CycleAccounting a0 = pipeline.cycleAccounting();
        u64 i0 = pipeline.committedInsts();
        while (pipeline.active() && pipeline.committedInsts() < end_mark)
            pipeline.stepCycle(window);
        u64 insts = pipeline.committedInsts() - i0;
        carf::Cycle cycles = pipeline.currentCycle() - c0;
        const core::CycleAccounting &a1 = pipeline.cycleAccounting();
        for (unsigned b = 0; b < core::CycleAccounting::NumBuckets; ++b)
            measured_acc.counts[b] += a1.counts[b] - a0.counts[b];
        measured_insts += insts;
        measured_cycles += cycles;
        if (insts > 0 && cycles > 0) {
            interval_ipc.push_back(static_cast<double>(insts) /
                                   static_cast<double>(cycles));
        }
        while (pipeline.active())
            pipeline.stepCycle(window);
    }

    if (tracer) {
        tracer->addItems(Layer::Warmup, skipped_insts);
        tracer->addItems(Layer::Pipeline, pipeline.committedInsts());
        tracer->addCycles(Layer::Pipeline, pipeline.currentCycle());
    }
    consumed = window.consumed();

    core::RunResult result = pipeline.finishRun();
    result.cycles = measured_cycles;
    result.committedInsts = measured_insts;
    result.ipc = measured_cycles ? static_cast<double>(measured_insts) /
                                       static_cast<double>(measured_cycles)
                                 : 0.0;
    result.cycleAccounting = measured_acc;
    result.samplingPeriod = o.samplingPeriod;
    result.samplingWarmup = o.samplingWarmup;
    result.samplingMeasure = o.samplingMeasure;
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
            1.96 *
            std::sqrt(var / static_cast<double>(interval_ipc.size()));
    }
    return result;
}

/** Rebuild @p job's chain; @p consumed = trace records advanced. */
core::RunResult
runChain(const Plan &plan, const Setup &setup, const Job &job,
         Tracer *tracer, u64 &consumed)
{
    core::RunResult r;
    switch (plan.mode) {
    case Mode::Solo:
    case Mode::Runner:
        r = soloChain(plan, setup, job, tracer);
        consumed = r.committedInsts;
        break;
    case Mode::Smt:
        r = smtChain(plan, setup, job, tracer);
        consumed = r.committedInsts;
        break;
    case Mode::Sampled:
        r = sampledChain(plan, setup, job, tracer, consumed);
        break;
    }
    return r;
}

/**
 * Standalone register-file replay: a 32-entry rename map over a FIFO
 * free list drives read (integer sources), noteAddress (memory ops),
 * write (integer results) and release (the overwritten mapping), and
 * checks every read returns the value the trace recorded. Returns the
 * operations performed.
 */
u64
replayRegfile(const emu::TraceBuffer &buffer, u64 records,
              const core::CoreParams &params, u64 &mismatches)
{
    regfile::RegFileParams rp = params.regFileParams();
    auto rf = regfile::makeRegFile(params.regFileBackend, rp, "probe");
    std::array<carf::u32, isa::numArchRegs> map{};
    std::deque<carf::u32> free_tags;
    for (carf::u32 tag = 0; tag < rp.entries; ++tag) {
        if (tag < isa::numArchRegs) {
            rf->write(tag, 0);
            map[tag] = tag;
        } else {
            free_tags.push_back(tag);
        }
    }

    u64 ops = 0;
    emu::TraceBuffer::Cursor cursor(buffer, records);
    emu::DynOp op;
    while (cursor.next(op)) {
        const isa::OpInfo &info = op.info();
        if (info.rs1Class == isa::RegClass::Int) {
            mismatches += rf->read(map[op.rs1]).value != op.rs1Value;
            ++ops;
        }
        if (info.rs2Class == isa::RegClass::Int) {
            mismatches += rf->read(map[op.rs2]).value != op.rs2Value;
            ++ops;
        }
        if (op.isLoad() || op.isStore()) {
            rf->noteAddress(op.effAddr);
            ++ops;
        }
        if (op.writesIntReg()) {
            carf::u32 tag = free_tags.front();
            free_tags.pop_front();
            if (rf->write(tag, op.rdValue).stalled)
                rf->writeForced(tag, op.rdValue);
            rf->release(map[op.rd]);
            free_tags.push_back(map[op.rd]);
            map[op.rd] = tag;
            ops += 2;
        }
    }
    return ops;
}

struct MemCounts
{
    u64 accesses = 0;
    std::array<u64, 3> hits{};   //!< il1, dl1, l2
    std::array<u64, 3> misses{};
};

/** Standalone cache-hierarchy replay of fetch lines and data addresses. */
void
replayMem(const emu::TraceBuffer &buffer, u64 records,
          const core::CoreParams &params, MemCounts &counts)
{
    mem::Hierarchy hierarchy(params.memory);
    const unsigned line_bytes = params.memory.il1.lineBytes;
    u64 last_line = ~u64{0};
    emu::TraceBuffer::Cursor cursor(buffer, records);
    emu::DynOp op;
    while (cursor.next(op)) {
        u64 addr = op.pc * 4; // instruction bytes, as the core fetches
        if (addr / line_bytes != last_line) {
            hierarchy.instAccess(addr);
            last_line = addr / line_bytes;
            ++counts.accesses;
        }
        if (op.isLoad() || op.isStore()) {
            hierarchy.dataAccess(op.effAddr);
            ++counts.accesses;
        }
    }
    const mem::Cache *caches[3] = {&hierarchy.il1(), &hierarchy.dl1(),
                                   &hierarchy.l2()};
    for (int i = 0; i < 3; ++i) {
        counts.hits[i] += caches[i]->hits();
        counts.misses[i] += caches[i]->misses();
    }
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

} // namespace

int
runTraced(const Plan &plan, const Args &args)
{
    Tracer tracer;
    u64 attempted = 0;
    u64 failed = 0;
    auto check = [&](bool ok, const std::string &what) {
        ++attempted;
        if (!ok && ++failed <= 10)
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    };
    const std::string store_dir = args.workDir + "/store-" + plan.name;

    // 1. Traced set-up.
    Setup setup;
    {
        tracer.setJob(0, false);
        u32 root = tracer.begin(Layer::Setup);
        setup = runSetup(plan, store_dir, &tracer);
        tracer.end(root);
    }
    check(setup.fallbacks == 0, "trace cache declined a trace");

    // 2. One untraced round through the entry point.
    auto round_start = std::chrono::steady_clock::now();
    std::vector<core::RunResult> lib = runRound(plan, setup);
    double round_seconds = secondsSince(round_start);
    double job_seconds = 0.0;
    for (size_t i = 0; i < lib.size(); ++i) {
        std::string why = checkResult(plan, setup, plan.jobs[i], lib[i]);
        check(why.empty(), plan.jobs[i].label + ": " + why);
        job_seconds += lib[i].wallSeconds;
    }
    setup.store.reset();
    std::filesystem::remove_all(store_dir);
    double runner_util = ratio(job_seconds, round_seconds * plan.workers);

    std::unique_ptr<emu::TraceCache> probe_cache;
    emu::TraceCache::Stats cache_stats;
    if (setup.cache)
        cache_stats = setup.cache->stats();

    // 3. Each job's chain, untraced then traced.
    double plain_seconds = 0.0;
    double traced_seconds = 0.0;
    for (size_t i = 0; i < plan.jobs.size(); ++i) {
        const Job &job = plan.jobs[i];
        const std::string want = strippedJson(lib[i]);
        u64 expected = setup.traceLen.at(job.workload.name);

        u64 consumed = 0;
        auto start = std::chrono::steady_clock::now();
        core::RunResult plain = runChain(plan, setup, job, nullptr, consumed);
        plain_seconds += secondsSince(start);
        check(strippedJson(plain) == want,
              job.label + ": rebuilt chain differs from the entry point");

        start = std::chrono::steady_clock::now();
        u32 root = tracer.begin(Layer::Traced);
        tracer.setJob(static_cast<u32>(i + 1), false);
        core::RunResult traced;
        {
            Scope span(&tracer, Layer::Job);
            traced = runChain(plan, setup, job, &tracer, consumed);
        }
        tracer.end(root);
        traced_seconds += secondsSince(start);
        check(strippedJson(traced) == want,
              job.label + ": traced result differs from the untraced one");
        if (plan.mode == Mode::Sampled)
            check(consumed == expected,
                  job.label + ": sampled run did not advance its trace");
    }

    // 4. Standalone probes.
    u32 probe_root = tracer.begin(Layer::Traced);
    emu::TraceCache *cache = setup.cache.get();
    double trace_build_s = setup.acquireSeconds;
    const u64 probe_len = std::min(plan.budget, kProbeRecords);
    std::vector<std::shared_ptr<const emu::TraceBuffer>> buffers;
    if (!cache) {
        probe_cache = std::make_unique<emu::TraceCache>();
        cache = probe_cache.get();
        trace_build_s = 0.0;
    }
    for (size_t k = 0; k < std::min(kProbeKernels, plan.kernels.size());
         ++k) {
        const workloads::Workload &w = plan.kernels[k];
        tracer.setJob(static_cast<u32>(1000 + k), true);
        auto start = std::chrono::steady_clock::now();
        std::shared_ptr<const emu::TraceBuffer> buffer;
        {
            Scope span(&tracer, Layer::Acquire);
            buffer = cache->acquire(w.name, probe_len, [&] {
                return workloads::makeTrace(w, probe_len);
            });
        }
        if (probe_cache)
            trace_build_s += secondsSince(start);
        check(buffer != nullptr, w.name + ": probe trace not materialised");
        if (buffer)
            buffers.push_back(buffer);
    }
    if (probe_cache)
        cache_stats = probe_cache->stats();

    const core::CoreParams ca = core::CoreParams::contentAware();
    const core::CoreParams ca_smt = smtParams(2);
    const core::CoreParams backends[] = {
        core::CoreParams::unlimited(), core::CoreParams::baseline(), ca,
        core::CoreParams::portReduction()};
    u64 mismatches = 0;
    MemCounts mem_counts;
    for (size_t k = 0; k < buffers.size(); ++k) {
        const emu::TraceBuffer &b = *buffers[k];
        tracer.setJob(static_cast<u32>(1000 + k), true);
        {
            // Solo chain over a replay cursor.
            emu::TraceBuffer::Cursor cursor(b, probe_len);
            SpanSource source(cursor, tracer, Layer::Replay);
            core::PredictingFetchStream predicted(source, ca);
            SpanFetch fetch(predicted, tracer);
            core::Pipeline pipeline(ca);
            core::RunResult r;
            {
                Scope span(&tracer, Layer::Pipeline);
                r = pipeline.run(fetch);
            }
            tracer.addItems(Layer::Pipeline, r.committedInsts);
            tracer.addCycles(Layer::Pipeline, r.cycles);
        }
        {
            // Functional warm-up over the same front end.
            emu::TraceBuffer::Cursor cursor(b, probe_len);
            SpanSource source(cursor, tracer, Layer::Replay);
            core::PredictingFetchStream predicted(source, ca);
            SpanFetch fetch(predicted, tracer);
            core::Pipeline pipeline(ca);
            core::Pipeline::WarmupScratch scratch;
            {
                Scope span(&tracer, Layer::Warmup);
                pipeline.warmUpRange(fetch, probe_len, scratch);
            }
            tracer.addItems(Layer::Warmup, fetch.records());
        }
        {
            // Two-thread SMT with this kernel and the next one.
            const emu::TraceBuffer &partner = *buffers[(k + 1) %
                                                       buffers.size()];
            emu::TraceBuffer::Cursor c0(b, probe_len);
            emu::TraceBuffer::Cursor c1(partner, probe_len);
            SpanSource s0(c0, tracer, Layer::Replay);
            SpanSource s1(c1, tracer, Layer::Replay);
            core::SmtPipeline pipeline(ca_smt, 2);
            core::SmtResult smt;
            {
                Scope span(&tracer, Layer::Smt);
                smt = pipeline.run({&s0, &s1});
            }
            tracer.addItems(Layer::Smt, smt.totalInsts());
            tracer.addCycles(Layer::Smt, smt.cycles);
        }
        for (const auto &params : backends) {
            u64 ops;
            {
                Scope span(&tracer, Layer::Regfile);
                ops = replayRegfile(b, probe_len, params, mismatches);
            }
            tracer.addItems(Layer::Regfile, ops);
        }
        {
            u64 before = mem_counts.accesses;
            {
                Scope span(&tracer, Layer::Mem);
                replayMem(b, probe_len, ca, mem_counts);
            }
            tracer.addItems(Layer::Mem, mem_counts.accesses - before);
        }
    }
    check(mismatches == 0, "register-file replay read back a wrong value");

    // Result-store and JSON round trip over this workload's results.
    u64 store_hits = 0;
    u64 store_misses = 0;
    {
        tracer.setJob(2000, true);
        const std::string dir = args.workDir + "/probe-store-" + plan.name;
        std::filesystem::remove_all(dir);
        sim::ResultStore store(dir, carf::buildFingerprint());
        for (size_t i = 0; i < lib.size(); ++i) {
            const Job &job = plan.jobs[i];
            std::string key = store.key(job.workload.name, job.params,
                                        jobOptions(plan, job, nullptr,
                                                   nullptr));
            std::optional<core::RunResult> got;
            {
                Scope span(&tracer, Layer::StoreGet);
                got = store.get(key);
            }
            check(!got, job.label + ": result-store key aliases another");
            {
                Scope span(&tracer, Layer::StorePut);
                store.put(key, lib[i]);
            }
            {
                Scope span(&tracer, Layer::StoreGet);
                got = store.get(key);
            }
            check(got && strippedJson(*got) == strippedJson(lib[i]),
                  job.label + ": result store did not return the result");
            std::string json;
            std::optional<core::RunResult> parsed;
            {
                Scope span(&tracer, Layer::Json);
                json = sim::runResultJsonFull(lib[i]);
                parsed = sim::parseRunResultJson(json);
            }
            check(parsed && sim::runResultJsonFull(*parsed) == json,
                  job.label + ": JSON round trip is not exact");
            tracer.addItems(Layer::StorePut, 1);
            tracer.addItems(Layer::StoreGet, 2);
            tracer.addItems(Layer::Json, 1);
        }
        store_hits = store.hits();
        store_misses = store.misses();
    }
    std::filesystem::remove_all(args.workDir + "/probe-store-" + plan.name);
    tracer.end(probe_root);

    // 5. Spans out, then the metrics.
    const std::string spans_path =
        args.workDir + "/spans-" + plan.name + "-seed" +
        std::to_string(plan.seed) + ".tsv";
    bool spans_written = tracer.write(spans_path);

    const Tracer::Totals t = tracer.totals();
    auto idx = [](Layer l) { return static_cast<unsigned>(l); };
    // Layers the workload's own jobs entered use only those spans;
    // the others fall back to the probes.
    auto kind = [&](Layer l) { return t.items[idx(l)][0] > 0 ? 0 : 1; };
    auto self_ns = [&](Layer l, int k) {
        switch (l) {
        case Layer::Build:
        case Layer::Regfile:
        case Layer::Mem:
        case Layer::StorePut:
        case Layer::StoreGet:
        case Layer::Json:
            return t.spanNs[idx(l)][k]; // leaves: the clock is exact
        default:
            return t.sampledNs[idx(l)][k];
        }
    };
    auto ns_per_item = [&](Layer l) {
        int k = kind(l);
        return ratio(self_ns(l, k), static_cast<double>(t.items[idx(l)][k]));
    };
    auto ns_per_cycle = [&](Layer l) {
        int k = kind(l);
        return ratio(self_ns(l, k), static_cast<double>(t.cycles[idx(l)][k]));
    };

    double committed = 0, cycles = 0, cond = 0, mispredicts = 0,
           skipped_cycles = 0, reads = 0, writes = 0, short_writes = 0,
           long_stalls = 0, recoveries = 0, live_long = 0,
           port_conflicts = 0, intervals = 0, skipped = 0, ci95 = 0;
    std::array<double, core::CycleAccounting::NumBuckets> buckets{};
    for (const auto &r : lib) {
        committed += r.committedInsts;
        cycles += r.cycles;
        cond += r.condBranches;
        mispredicts += r.branchMispredicts;
        skipped_cycles += r.fastPathSkippedCycles;
        reads += r.intRfAccesses.totalReads();
        writes += r.intRfAccesses.totalWrites();
        short_writes += r.shortFileWrites;
        long_stalls += r.longAllocStalls;
        recoveries += r.recoveries;
        live_long += r.avgLiveLong;
        port_conflicts += r.portConflictOps;
        intervals += r.samplingIntervals;
        skipped += r.samplingSkippedInsts;
        ci95 += r.samplingIpcCi95;
        for (unsigned b = 0; b < buckets.size(); ++b)
            buckets[b] += r.cycleAccounting.counts[b];
    }
    const double jobs = static_cast<double>(lib.size());
    // A sampled result's cycles cover its measured windows only; the
    // idle-cycle skip runs in every detailed cycle the chain counted.
    const double detailed_cycles =
        plan.mode == Mode::Sampled
            ? static_cast<double>(t.cycles[idx(Layer::Pipeline)][0])
            : cycles;
    const double overhead = ratio(traced_seconds, plain_seconds) - 1.0;

    std::vector<Metric> m = {
        {"workloads.build_ms", self_ns(Layer::Build, 0) / 1e6, "ms"},
        {"emu.emulate_ns_per_inst", ns_per_item(Layer::Emulate), "ns"},
        {"emu.replay_ns_per_inst", ns_per_item(Layer::Replay), "ns"},
        {"emu.trace_build_s", trace_build_s, "s"},
        {"emu.trace_cache_mb",
         static_cast<double>(cache_stats.bytesCached) / (1 << 20), "MB"},
        {"emu.trace_cache_builds", static_cast<double>(cache_stats.builds),
         "count"},
        {"emu.trace_cache_hits", static_cast<double>(cache_stats.hits),
         "count"},
        {"emu.trace_cache_fallbacks",
         static_cast<double>(cache_stats.fallbacks), "count"},
        {"branch.fetch_ns_per_inst", ns_per_item(Layer::Fetch), "ns"},
        {"branch.mispredict_rate", ratio(mispredicts, cond), "frac"},
        {"core.pipeline_ns_per_inst", ns_per_item(Layer::Pipeline), "ns"},
        {"core.pipeline_ns_per_cycle", ns_per_cycle(Layer::Pipeline), "ns"},
        {"core.warmup_ns_per_inst", ns_per_item(Layer::Warmup), "ns"},
        {"core.smt_ns_per_inst", ns_per_item(Layer::Smt), "ns"},
        {"core.skipped_cycle_frac", ratio(skipped_cycles, detailed_cycles),
         "frac"},
        {"core.ipc", ratio(committed, cycles), "inst/cycle"},
        {"core.cycles", cycles, "count"},
    };
    for (unsigned b = 0; b < buckets.size(); ++b) {
        m.push_back({std::string("core.bucket.") +
                         core::CycleAccounting::bucketName(b),
                     ratio(buckets[b], cycles), "frac"});
    }
    auto miss_rate = [&](int level) {
        return ratio(static_cast<double>(mem_counts.misses[level]),
                     static_cast<double>(mem_counts.hits[level] +
                                         mem_counts.misses[level]));
    };
    std::vector<Metric> rest = {
        {"regfile.ns_per_op", ns_per_item(Layer::Regfile), "ns"},
        {"regfile.reads", reads, "count"},
        {"regfile.writes", writes, "count"},
        {"regfile.short_writes", short_writes, "count"},
        {"regfile.long_alloc_stalls", long_stalls, "count"},
        {"regfile.recoveries", recoveries, "count"},
        {"regfile.avg_live_long", ratio(live_long, jobs), "count"},
        {"regfile.port_conflict_ops", port_conflicts, "count"},
        {"mem.ns_per_access", ns_per_item(Layer::Mem), "ns"},
        {"mem.il1_miss_rate", miss_rate(0), "frac"},
        {"mem.dl1_miss_rate", miss_rate(1), "frac"},
        {"mem.l2_miss_rate", miss_rate(2), "frac"},
        {"sim.runner_util", runner_util, "frac"},
        {"sim.store_put_us", ns_per_item(Layer::StorePut) / 1e3, "us"},
        {"sim.store_get_us", ns_per_item(Layer::StoreGet) / 1e3, "us"},
        {"sim.json_us_per_result", ns_per_item(Layer::Json) / 1e3, "us"},
        {"sim.store_hits", static_cast<double>(store_hits), "count"},
        {"sim.store_misses", static_cast<double>(store_misses), "count"},
        {"sim.sampling_intervals", intervals, "count"},
        {"sim.sampling_skipped_frac",
         ratio(skipped, jobs * static_cast<double>(plan.budget)), "frac"},
        {"sim.sampling_ci95", ratio(ci95, jobs), "inst/cycle"},
        {"trace.overhead_frac", overhead, "frac"},
    };
    m.insert(m.end(), rest.begin(), rest.end());

    // The sampled self times must account for the traced wall time,
    // within what tracing itself cost.
    double gap = ratio(std::fabs(t.rootNs - t.sampledSumNs), t.rootNs);
    double gap_limit = std::fabs(overhead) + 0.05;
    std::printf("perfbench %s seed=%llu traced run: %zu jobs, %llu spans, "
                "%llu samples (every %ld us)\n",
                plan.name.c_str(), (unsigned long long)plan.seed,
                plan.jobs.size(), (unsigned long long)t.spans,
                (unsigned long long)t.samples, kSamplePeriodNs / 1000);
    std::printf("  host time unless marked; simulated counts come from "
                "one untraced round of an unvalidated timing model\n");
    std::printf("  traced wall %.6f s, sum of sampled self times %.6f s, "
                "gap %.4f (limit %.4f) %s\n",
                t.rootNs / 1e9, t.sampledSumNs / 1e9, gap, gap_limit,
                gap <= gap_limit ? "ok" : "EXCEEDED");
    std::printf("  spans written to %s%s\n", spans_path.c_str(),
                spans_written ? "" : " (FAILED)");
    std::printf("  result_digest %s [simulated]\n",
                resultDigest(plan, lib).c_str());
    printResult(failed == 0 && spans_written, attempted, failed, m);
    return 0;
}

} // namespace perfbench
