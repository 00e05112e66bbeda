#include "plan.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "common/fingerprint.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "emu/emulator.hh"
#include "sim/experiment_runner.hh"
#include "sim/reporting.hh"
#include "tracing.hh"
#include "workloads/synthetic.hh"

namespace perfbench
{

namespace core = carf::core;
namespace emu = carf::emu;
namespace sim = carf::sim;
namespace workloads = carf::workloads;

namespace
{

/** splitmix64: the seeded permutations must not depend on the STL. */
u64
mix(u64 &state)
{
    u64 z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

template <class T>
void
shuffle(std::vector<T> &v, u64 seed)
{
    u64 state = seed ^ 0x70e7f00du;
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[mix(state) % i]);
}

workloads::Workload
syntheticKernel(u64 seed)
{
    return {"synth_s" + std::to_string(seed), workloads::Suite::Int,
            [seed] {
                workloads::SyntheticParams p;
                p.seed = seed;
                return workloads::buildSynthetic(p);
            }};
}

void
addKernel(Plan &plan, const workloads::Workload &w)
{
    for (const auto &k : plan.kernels)
        if (k.name == w.name)
            return;
    plan.kernels.push_back(w);
}

/** Named kernels plus the seeded synthetic one. */
std::vector<workloads::Workload>
suiteWithSeed(const std::vector<workloads::Workload> &named, u64 seed)
{
    std::vector<workloads::Workload> out = named;
    out.push_back(syntheticKernel(seed));
    return out;
}

/** A TraceSource that owns the stream it times (cache builders). */
class OwnedSpanSource final : public emu::TraceSource
{
  public:
    OwnedSpanSource(std::unique_ptr<emu::TraceSource> inner, Tracer &tracer)
        : inner_(std::move(inner)),
          span_(*inner_, tracer, Layer::Emulate)
    {
    }

    bool next(emu::DynOp &out) override { return span_.next(out); }
    std::string name() const override { return span_.name(); }

  private:
    std::unique_ptr<emu::TraceSource> inner_;
    SpanSource span_;
};

} // namespace

core::CoreParams
smtParams(unsigned threads)
{
    core::CoreParams p = core::CoreParams::contentAware();
    p.smtThreads = threads;
    p.physIntRegs = 80 + 32 * threads;
    p.physFpRegs = 96 + 32 * threads;
    return p;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "solo_stream", "sweep_grid", "smt_mix", "sampled_long"};
    return names;
}

Plan
makePlan(const std::string &name, u64 seed, bool tiny)
{
    Plan plan;
    plan.name = name;
    plan.seed = seed;
    // Caches start empty in every job: no functional fast-forward.
    plan.options.fastForward = 0;

    if (name == "solo_stream") {
        plan.mode = Mode::Solo;
        plan.budget = tiny ? 8'000 : 100'000;
        std::vector<workloads::Workload> named = workloads::intSuite();
        for (const auto &w : workloads::fpSuite())
            named.push_back(w);
        for (const auto &w : workloads::stallSuite())
            named.push_back(w);
        for (const auto &w : suiteWithSeed(named, seed)) {
            addKernel(plan, w);
            plan.jobs.push_back({w.name, w, core::CoreParams::contentAware(),
                                 {}});
        }
    } else if (name == "sweep_grid") {
        plan.mode = Mode::Runner;
        plan.budget = tiny ? 5'000 : 100'000;
        plan.useCache = true;
        // Half the host's threads (at most 4): the rest of the host's
        // load then competes for idle threads, not for the workers.
        plan.workers = std::clamp(sim::ExperimentRunner::hardwareJobs() / 2,
                                  1u, 4u);
        const std::pair<const char *, core::CoreParams> configs[] = {
            {"unlimited", core::CoreParams::unlimited()},
            {"baseline", core::CoreParams::baseline()},
            {"content-aware", core::CoreParams::contentAware()},
            {"port-reduction", core::CoreParams::portReduction()},
        };
        auto suite = suiteWithSeed(workloads::allWorkloads(), seed);
        for (const auto &w : suite)
            addKernel(plan, w);
        for (const auto &[label, params] : configs)
            for (const auto &w : suite)
                plan.jobs.push_back(
                    {std::string(label) + "|" + w.name, w, params, {}});
        shuffle(plan.jobs, seed);
    } else if (name == "smt_mix") {
        plan.mode = Mode::Smt;
        plan.budget = tiny ? 4'000 : 40'000;
        plan.useCache = true;
        // Fixed named mixes; the seeded kernel leads one mix per thread
        // count, with partners drawn from this pool by the seed.
        std::vector<std::string> pool = {"hash_table", "counters", "crc",
                                         "daxpy"};
        shuffle(pool, seed);
        const workloads::Workload synth = syntheticKernel(seed);
        for (unsigned threads : {2u, 4u}) {
            std::vector<std::pair<workloads::Workload,
                                  std::vector<std::string>>>
                mixes = {
                    {workloads::findWorkload("hash_table"), {}},
                    {workloads::findWorkload("mem_chase"), {"counters"}},
                    {workloads::findWorkload("crc"), {"daxpy"}},
                    {synth, std::vector<std::string>(
                                pool.begin(), pool.begin() + threads - 1)},
                };
            for (auto &[lead, partners] : mixes) {
                core::CoreParams params = smtParams(threads);
                std::string label = "T" + std::to_string(threads) + "|" +
                                    lead.name;
                for (const auto &p : partners)
                    label += "+" + p;
                addKernel(plan, lead);
                for (const auto &p : partners)
                    addKernel(plan, workloads::findWorkload(p));
                plan.jobs.push_back({label, lead, params, partners});
            }
        }
        shuffle(plan.jobs, seed);
    } else if (name == "sampled_long") {
        plan.mode = Mode::Sampled;
        plan.budget = tiny ? 60'000 : 500'000;
        plan.options.lockstep = false;
        plan.options.samplingPeriod = tiny ? 20'000 : 25'000;
        plan.options.samplingWarmup = 2'000;
        plan.options.samplingMeasure = 1'000;
        for (const auto &w : suiteWithSeed(workloads::intSuite(), seed)) {
            addKernel(plan, w);
            plan.jobs.push_back({w.name, w, core::CoreParams::contentAware(),
                                 {}});
        }
    } else {
        carf::fatal("perfbench: unknown workload '%s'", name.c_str());
    }
    plan.options.maxInsts = plan.budget;
    return plan;
}

sim::SimOptions
jobOptions(const Plan &plan, const Job &job, emu::TraceCache *cache,
           sim::ResultStore *store)
{
    sim::SimOptions o = plan.options;
    o.traceCache = plan.useCache ? cache : nullptr;
    o.resultStore = plan.mode == Mode::Runner ? store : nullptr;
    o.smtMix = job.partners;
    return o;
}

Setup
runSetup(const Plan &plan, const std::string &store_dir, Tracer *tracer)
{
    if (plan.mode == Mode::Runner)
        std::filesystem::remove_all(store_dir);

    Setup setup;
    auto start = std::chrono::steady_clock::now();

    std::vector<carf::isa::Program> programs;
    programs.reserve(plan.kernels.size());
    for (const auto &k : plan.kernels) {
        Scope span(tracer, Layer::Build);
        programs.push_back(k.build());
    }

    auto acquire_start = std::chrono::steady_clock::now();
    if (plan.useCache)
        setup.cache = std::make_unique<emu::TraceCache>();
    for (size_t i = 0; i < plan.kernels.size(); ++i) {
        const auto &k = plan.kernels[i];
        u64 len = plan.budget;
        if (setup.cache) {
            Scope span(tracer, Layer::Acquire);
            auto buffer = setup.cache->acquire(
                k.name, plan.budget,
                [&]() -> std::unique_ptr<emu::TraceSource> {
                    auto source = std::make_unique<emu::Emulator>(
                        programs[i], k.name, plan.budget);
                    if (!tracer)
                        return source;
                    return std::make_unique<OwnedSpanSource>(
                        std::move(source), *tracer);
                });
            if (buffer)
                len = std::min<u64>(buffer->size(), plan.budget);
            else
                ++setup.fallbacks;
        }
        setup.traceLen[k.name] = len;
    }
    setup.acquireSeconds = plan.useCache ? secondsSince(acquire_start) : 0.0;

    if (plan.mode == Mode::Runner) {
        setup.store = std::make_unique<sim::ResultStore>(
            store_dir, carf::buildFingerprint());
    }
    setup.seconds = secondsSince(start);
    return setup;
}

std::vector<core::RunResult>
runRound(const Plan &plan, const Setup &setup)
{
    std::vector<core::RunResult> results;
    if (plan.mode == Mode::Runner) {
        std::vector<sim::ExperimentJob> batch;
        batch.reserve(plan.jobs.size());
        for (const auto &job : plan.jobs) {
            batch.push_back({job.workload, job.params,
                             jobOptions(plan, job, setup.cache.get(),
                                        setup.store.get()),
                             job.label, nullptr});
        }
        return sim::ExperimentRunner(plan.workers).run(batch);
    }
    results.reserve(plan.jobs.size());
    for (const auto &job : plan.jobs) {
        sim::SimOptions o = jobOptions(plan, job, setup.cache.get(), nullptr);
        switch (plan.mode) {
        case Mode::Solo:
            results.push_back(sim::simulate(job.workload, job.params, o));
            break;
        case Mode::Smt:
            results.push_back(sim::simulateSmt(job.workload, job.params, o));
            break;
        case Mode::Sampled:
            results.push_back(
                sim::simulateSampled(job.workload, job.params, o));
            break;
        case Mode::Runner:
            break;
        }
    }
    return results;
}

u64
simulatedWork(const Plan &plan, const core::RunResult &result)
{
    // The sampling engine walks every trace record, detailed or
    // functional, until the stream ends (checked in the traced run).
    return plan.mode == Mode::Sampled ? plan.budget : result.committedInsts;
}

std::string
checkResult(const Plan &plan, const Setup &setup, const Job &job,
            const core::RunResult &r)
{
    if (r.cycleAccounting.total() != r.cycles)
        return "cycle buckets do not sum to cycles";
    if (r.cycles == 0 || r.committedInsts == 0)
        return "no simulated progress";
    auto len_of = [&](const std::string &name) {
        auto it = setup.traceLen.find(name);
        return it == setup.traceLen.end() ? plan.budget : it->second;
    };
    u64 expected = len_of(job.workload.name);

    switch (plan.mode) {
    case Mode::Solo:
    case Mode::Runner:
        if (r.committedInsts != expected)
            return "committed " + std::to_string(r.committedInsts) +
                   " instructions, expected " + std::to_string(expected);
        break;
    case Mode::Smt: {
        unsigned threads = job.params.smtThreads;
        if (r.smtThreads != threads || r.smtThreadInsts.size() != threads)
            return "wrong SMT thread count";
        u64 sum = 0;
        bool one_drained = false;
        for (unsigned t = 0; t < threads; ++t) {
            const std::string &name =
                t == 0 || job.partners.empty()
                    ? job.workload.name
                    : job.partners[(t - 1) % job.partners.size()];
            u64 insts = r.smtThreadInsts[t];
            if (insts > len_of(name))
                return "thread committed past its trace";
            one_drained |= insts == len_of(name);
            sum += insts;
        }
        if (sum != r.committedInsts)
            return "per-thread commits do not sum to the total";
        // The run ends when the first thread drains its whole trace.
        if (!one_drained)
            return "no thread committed its whole trace";
        break;
    }
    case Mode::Sampled:
        if (r.samplingIntervals < 1)
            return "sampled run measured no interval";
        // A window closes at the first commit cycle reaching its mark.
        if (r.committedInsts > r.samplingIntervals *
                                   (plan.options.samplingMeasure +
                                    job.params.commitWidth))
            return "measured intervals longer than samplingMeasure";
        if (r.samplingSkippedInsts >= expected)
            return "functional gaps cover the whole trace";
        break;
    }
    return {};
}

std::string
strippedJson(const core::RunResult &result)
{
    return sim::runResultJsonFull(result, false);
}

std::string
resultDigest(const Plan &plan, const std::vector<core::RunResult> &results)
{
    std::vector<std::pair<std::string, std::string>> rows;
    for (size_t i = 0; i < results.size(); ++i)
        rows.emplace_back(plan.jobs[i].label, strippedJson(results[i]));
    std::sort(rows.begin(), rows.end());
    carf::Sha256 sha;
    for (const auto &[label, json] : rows) {
        sha.update(label);
        sha.update("\n");
        sha.update(json);
        sha.update("\n");
    }
    return sha.hexDigest();
}

} // namespace perfbench
