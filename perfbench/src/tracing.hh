/**
 * @file
 * In-memory span tracer for the benchmark's traced run.
 *
 * Spans are recorded from outside the simulator, around calls into each
 * module's public functions: a span is (layer, start, end, parent span,
 * job id), kept in memory and written out when the run ends.
 *
 * A layer's self time is its span minus its child spans. Layers that run
 * once per trace record (emulation, replay, branch prediction) nest
 * inside the core's spans millions of times; reading the clock around
 * each call would double their cost and, because a clock read waits
 * for in-flight work, would charge each call its full latency instead
 * of its share of an overlapped pipeline. So those calls only mark the
 * innermost open layer (two stores, no clock read), and self times are
 * measured by sampling: a timer interrupts the traced thread every
 * kSamplePeriodNs and charges the period to the innermost open layer.
 * Leaf spans that run for microseconds at a time (program builds,
 * standalone replays, result-store calls) take their self time from
 * the clock instead, where sampling would be too coarse.
 */

#ifndef PERFBENCH_TRACING_HH
#define PERFBENCH_TRACING_HH

#include <time.h>

#include <array>
#include <string>
#include <vector>

#include "core/fetch_stream.hh"
#include "emu/trace.hh"

namespace perfbench
{

using carf::u32;
using carf::u64;

/** Span names: one per layer boundary the benchmark instruments. */
enum class Layer : unsigned
{
    Idle,     //!< no span open (the sampling timer is disarmed)
    Setup,    //!< root: traced set-up
    Traced,   //!< root: a traced job or the standalone probes
    Job,      //!< one simulation job (benchmark-side driver code)
    Build,    //!< workloads: Workload::build
    Acquire,  //!< emu: TraceCache::acquire (self time = cache logic)
    Emulate,  //!< emu: functional emulator TraceSource::next
    Replay,   //!< emu: TraceBuffer::Cursor::next
    Fetch,    //!< branch: PredictingFetchStream::next minus its source
    Pipeline, //!< core: Pipeline::run / stepCycle minus the stream
    Warmup,   //!< core: Pipeline::warmUpRange minus the stream
    Smt,      //!< core: SmtPipeline::run minus its sources
    Regfile,  //!< regfile: standalone RegisterFile replay
    Mem,      //!< mem: standalone Hierarchy replay
    StorePut, //!< sim: ResultStore::put
    StoreGet, //!< sim: ResultStore::get
    Json,     //!< sim: runResultJsonFull + parseRunResultJson
    NumLayers,
};

const char *layerName(Layer layer);

constexpr unsigned kNumLayers = static_cast<unsigned>(Layer::NumLayers);

/** Sampling period of the traced thread's self-time profile. */
constexpr long kSamplePeriodNs = 200'000;

/**
 * One per process at a time: the sampling timer's signal handler
 * reads the innermost open layer from process-wide state.
 */
class Tracer
{
  public:
    Tracer();
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Open a span under the innermost open one; returns its id. A span
     * with no parent is a root: sampling runs only while one is open.
     */
    u32 begin(Layer layer);
    /** Close span @p id (must be the innermost open span). */
    void end(u32 id);

    /**
     * Attribute spans, samples and item counts from now on to job
     * @p job. Probe jobs are the standalone runs the traced run adds so
     * that every layer is measured on every workload; their numbers are
     * used only for layers the workload's own jobs never enter.
     */
    void setJob(u32 job, bool probe);

    /** Mark @p layer innermost without a span; returns what to restore. */
    unsigned enter(Layer layer);
    /** Undo the matching enter(). */
    void leave(unsigned saved);

    /** Book @p n units of work (records, instructions, operations). */
    void addItems(Layer layer, u64 n);
    /** Book @p n simulated cycles for a core layer. */
    void addCycles(Layer layer, u64 n);

    /** Per layer, [0] = the workload's own jobs, [1] = probe jobs. */
    using PerKind = std::array<std::array<double, 2>, kNumLayers>;
    using PerKindCount = std::array<std::array<u64, 2>, kNumLayers>;

    struct Totals
    {
        /** Sampled self nanoseconds (samples x period). */
        PerKind sampledNs{};
        /** Clock-measured span nanoseconds (self time of leaf spans). */
        PerKind spanNs{};
        PerKindCount items{};
        PerKindCount cycles{};
        /** Sum of root span durations: the traced wall time. */
        double rootNs = 0.0;
        /** Sum of every sampled self time. */
        double sampledSumNs = 0.0;
        u64 spans = 0;
        u64 samples = 0;
    };
    Totals totals() const;

    /** Write every span and the sample counts as TSV. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        long long start = 0;
        long long end = 0;
        u32 parent = 0;
        u32 job = 0;
        Layer layer = Layer::Job;
        bool probe = false;
        /** Sampling state to restore when the span closes. */
        unsigned saved = 0;
    };

    static long long now();
    unsigned state(Layer layer) const;
    void arm(bool on);

    static constexpr u32 kNoSpan = ~u32{0};

    std::vector<Span> spans_;
    u32 open_ = kNoSpan;
    u32 job_ = 0;
    bool probe_ = false;
    timer_t timer_{};
    bool haveTimer_ = false;
    PerKindCount items_{};
    PerKindCount cycles_{};
};

/** RAII span; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *tracer, Layer layer)
        : tracer_(tracer), id_(tracer ? tracer->begin(layer) : 0)
    {
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    u32 id_;
};

/** Marks a TraceSource (emulator or replay cursor) and counts records. */
class SpanSource final : public carf::emu::TraceSource
{
  public:
    SpanSource(carf::emu::TraceSource &inner, Tracer &tracer, Layer layer)
        : inner_(&inner), tracer_(&tracer), layer_(layer)
    {
    }
    ~SpanSource() override { tracer_->addItems(layer_, records_); }
    SpanSource(const SpanSource &) = delete;
    SpanSource &operator=(const SpanSource &) = delete;

    bool
    next(carf::emu::DynOp &out) override
    {
        unsigned saved = tracer_->enter(layer_);
        bool ok = inner_->next(out);
        tracer_->leave(saved);
        records_ += ok;
        return ok;
    }
    std::string name() const override { return inner_->name(); }

  private:
    carf::emu::TraceSource *inner_;
    Tracer *tracer_;
    Layer layer_;
    u64 records_ = 0;
};

/** Marks a FetchStream (the branch front end) and counts records. */
class SpanFetch final : public carf::core::FetchStream
{
  public:
    SpanFetch(carf::core::FetchStream &inner, Tracer &tracer)
        : inner_(&inner), tracer_(&tracer)
    {
    }
    ~SpanFetch() override { tracer_->addItems(Layer::Fetch, records_); }
    SpanFetch(const SpanFetch &) = delete;
    SpanFetch &operator=(const SpanFetch &) = delete;

    bool
    next(carf::core::FetchEntry &out) override
    {
        unsigned saved = tracer_->enter(Layer::Fetch);
        bool ok = inner_->next(out);
        tracer_->leave(saved);
        records_ += ok;
        return ok;
    }
    std::string name() const override { return inner_->name(); }

    u64 records() const { return records_; }

  private:
    carf::core::FetchStream *inner_;
    Tracer *tracer_;
    u64 records_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACING_HH
