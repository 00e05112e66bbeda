#include "tracing.hh"

#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>

#include "common/logging.hh"

namespace perfbench
{

namespace
{

/**
 * The sampling state the timer's handler reads: 2 * layer + probe.
 * Process-wide because a signal handler cannot reach a Tracer.
 */
std::atomic<unsigned> g_state{0};
std::atomic<u64> g_samples[2 * kNumLayers];

static_assert(std::atomic<unsigned>::is_always_lock_free &&
                  std::atomic<u64>::is_always_lock_free,
              "the sampling handler must be async-signal-safe");

void
onSample(int)
{
    g_samples[g_state.load(std::memory_order_relaxed)].fetch_add(
        1, std::memory_order_relaxed);
}

} // namespace

const char *
layerName(Layer layer)
{
    static const char *const names[kNumLayers] = {
        "idle",           "bench.setup",    "bench.traced",
        "bench.job",      "workloads.build", "emu.acquire",
        "emu.emulate",    "emu.replay",     "branch.fetch",
        "core.pipeline",  "core.warmup",    "core.smt",
        "regfile.replay", "mem.replay",     "sim.store_put",
        "sim.store_get",  "sim.json",
    };
    return names[static_cast<unsigned>(layer)];
}

Tracer::Tracer()
{
    for (auto &s : g_samples)
        s.store(0, std::memory_order_relaxed);
    g_state.store(0, std::memory_order_relaxed);
    spans_.reserve(1 << 12);

    struct sigaction action = {};
    action.sa_handler = onSample;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    if (sigaction(SIGPROF, &action, nullptr) != 0)
        carf::fatal("perfbench: cannot install the sampling handler");

    // Deliver the ticks to this thread: the traced work runs on it.
    struct sigevent event = {};
    event.sigev_notify = SIGEV_THREAD_ID;
    event.sigev_signo = SIGPROF;
    event._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
    if (timer_create(CLOCK_MONOTONIC, &event, &timer_) != 0)
        carf::fatal("perfbench: cannot create the sampling timer");
    haveTimer_ = true;
}

Tracer::~Tracer()
{
    if (haveTimer_)
        timer_delete(timer_);
    // A tick already in flight must not terminate the process.
    signal(SIGPROF, SIG_IGN);
}

long long
Tracer::now()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

unsigned
Tracer::state(Layer layer) const
{
    return 2 * static_cast<unsigned>(layer) + (probe_ ? 1 : 0);
}

void
Tracer::arm(bool on)
{
    struct itimerspec spec = {};
    if (on) {
        spec.it_value.tv_nsec = kSamplePeriodNs;
        spec.it_interval.tv_nsec = kSamplePeriodNs;
    }
    timer_settime(timer_, 0, &spec, nullptr);
}

u32
Tracer::begin(Layer layer)
{
    Span span;
    span.parent = open_;
    span.job = job_;
    span.layer = layer;
    span.probe = probe_;
    span.saved = g_state.load(std::memory_order_relaxed);
    u32 id = static_cast<u32>(spans_.size());
    spans_.push_back(span);
    g_state.store(state(layer), std::memory_order_relaxed);
    if (open_ == kNoSpan)
        arm(true);
    open_ = id;
    spans_[id].start = now();
    return id;
}

void
Tracer::end(u32 id)
{
    Span &span = spans_[id];
    span.end = now();
    open_ = span.parent;
    if (open_ == kNoSpan)
        arm(false);
    g_state.store(span.saved, std::memory_order_relaxed);
}

void
Tracer::setJob(u32 job, bool probe)
{
    job_ = job;
    probe_ = probe;
}

unsigned
Tracer::enter(Layer layer)
{
    unsigned saved = g_state.load(std::memory_order_relaxed);
    g_state.store(state(layer), std::memory_order_relaxed);
    return saved;
}

void
Tracer::leave(unsigned saved)
{
    g_state.store(saved, std::memory_order_relaxed);
}

void
Tracer::addItems(Layer layer, u64 n)
{
    items_[static_cast<unsigned>(layer)][probe_ ? 1 : 0] += n;
}

void
Tracer::addCycles(Layer layer, u64 n)
{
    cycles_[static_cast<unsigned>(layer)][probe_ ? 1 : 0] += n;
}

Tracer::Totals
Tracer::totals() const
{
    Totals t;
    t.items = items_;
    t.cycles = cycles_;
    t.spans = spans_.size();
    for (const Span &s : spans_) {
        double dur = static_cast<double>(s.end - s.start);
        t.spanNs[static_cast<unsigned>(s.layer)][s.probe ? 1 : 0] += dur;
        if (s.parent == kNoSpan)
            t.rootNs += dur;
    }
    for (unsigned l = 1; l < kNumLayers; ++l) { // Idle is never sampled
        for (unsigned k = 0; k < 2; ++k) {
            u64 n = g_samples[2 * l + k].load(std::memory_order_relaxed);
            t.samples += n;
            t.sampledNs[l][k] = static_cast<double>(n) * kSamplePeriodNs;
            t.sampledSumNs += t.sampledNs[l][k];
        }
    }
    return t;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "id\tparent\tjob\tprobe\tlayer\tstart_ns\tend_ns\n");
    long long origin = spans_.empty() ? 0 : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%zu\t%lld\t%u\t%d\t%s\t%lld\t%lld\n", i,
                     s.parent == kNoSpan ? -1LL : (long long)s.parent,
                     s.job, s.probe ? 1 : 0, layerName(s.layer),
                     s.start - origin, s.end - origin);
    }
    std::fprintf(f, "# samples every %ld ns: layer\tprobe\tcount\n",
                 kSamplePeriodNs);
    for (unsigned l = 0; l < kNumLayers; ++l) {
        for (unsigned k = 0; k < 2; ++k) {
            std::fprintf(f, "# %s\t%u\t%llu\n",
                         layerName(static_cast<Layer>(l)), k,
                         (unsigned long long)g_samples[2 * l + k].load(
                             std::memory_order_relaxed));
        }
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
