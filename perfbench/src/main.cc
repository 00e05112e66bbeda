/**
 * @file
 * perfbench: the simulator's end-to-end benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--tiny]
 *
 * --trace 0 measures the end-to-end metrics: set-up runs kSetupReps
 * times (median reported), then whole rounds of the workload's jobs
 * repeat through its public entry point until S seconds have passed,
 * and the simulated-instruction rate of the fastest round is reported. --trace 1 runs
 * the traced run (traced_run.cc) for the per-layer metrics instead.
 *
 * Host time is the simulator's own run time on this machine; simulated
 * statistics come from a timing model that has not been validated
 * against hardware. The only accuracy figure reported is sampled
 * against full-detail simulation.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "bench.hh"
#include "common/fingerprint.hh"
#include "sim/result_store.hh"

namespace perfbench
{

namespace core = carf::core;
namespace sim = carf::sim;

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
printResult(bool correct, u64 attempted, u64 failed,
            const std::vector<Metric> &metrics)
{
    for (const auto &m : metrics)
        std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

namespace
{

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 9;

/** Failures reported in detail on stderr before the rest are counted. */
constexpr u64 kMaxFailureLines = 10;

const char *
callerModel(const Plan &plan)
{
    return plan.mode == Mode::Runner ? "runner" : "serial";
}

/**
 * Mean over kernels of |sampled IPC - full IPC| / full IPC, in percent,
 * against an untimed full-detail simulate() of the same kernel and
 * budget.
 */
double
sampledIpcErrorPct(const Plan &plan,
                   const std::vector<core::RunResult> &sampled,
                   u64 &attempted, u64 &failed)
{
    double sum = 0.0;
    for (size_t i = 0; i < plan.jobs.size(); ++i) {
        const Job &job = plan.jobs[i];
        sim::SimOptions full = plan.options;
        full.samplingPeriod = 0;
        core::RunResult ref = sim::simulate(job.workload, job.params, full);
        ++attempted;
        if (ref.committedInsts != plan.budget || ref.ipc <= 0.0) {
            ++failed;
            std::fprintf(stderr, "perfbench: full-detail reference of %s "
                                 "did not run its budget\n",
                         job.label.c_str());
            continue;
        }
        sum += std::fabs(sampled[i].ipc - ref.ipc) / ref.ipc;
    }
    return 100.0 * sum / static_cast<double>(plan.jobs.size());
}

int
runTimed(const Plan &plan, const Args &args)
{
    const std::string store_dir = args.workDir + "/store-" + plan.name;

    std::vector<double> setup_seconds;
    Setup setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        setup = Setup{}; // release the previous cache and store first
        setup = runSetup(plan, store_dir, nullptr);
        setup_seconds.push_back(setup.seconds);
    }

    u64 attempted = 0;
    u64 failed = 0;
    auto fail = [&](const std::string &what) {
        if (++failed <= kMaxFailureLines)
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    };
    if (setup.fallbacks > 0) {
        ++attempted;
        fail("trace cache declined to materialise a trace");
    }

    std::vector<double> rates;
    std::vector<core::RunResult> first;
    std::vector<std::string> first_json;
    auto timed_start = std::chrono::steady_clock::now();
    for (unsigned round = 0;; ++round) {
        if (plan.mode == Mode::Runner && round > 0) {
            // Every round starts from an empty result store.
            setup.store.reset();
            std::filesystem::remove_all(store_dir);
            setup.store = std::make_unique<sim::ResultStore>(
                store_dir, carf::buildFingerprint());
        }
        auto start = std::chrono::steady_clock::now();
        std::vector<core::RunResult> results = runRound(plan, setup);
        double seconds = secondsSince(start);

        u64 work = 0;
        for (const auto &r : results)
            work += simulatedWork(plan, r);
        rates.push_back(static_cast<double>(work) / seconds / 1e6);

        for (size_t i = 0; i < results.size(); ++i) {
            const Job &job = plan.jobs[i];
            ++attempted;
            std::string why = checkResult(plan, setup, job, results[i]);
            if (why.empty() && round > 0 &&
                strippedJson(results[i]) != first_json[i])
                why = "result differs from the first round";
            if (!why.empty())
                fail(job.label + ": " + why);
        }
        if (setup.store && (setup.store->hits() != 0 ||
                            setup.store->misses() != plan.jobs.size())) {
            ++attempted;
            fail("fresh result store served a hit (aliased keys)");
        }
        if (round == 0) {
            first = results;
            for (const auto &r : results)
                first_json.push_back(strippedJson(r));
        }
        if (secondsSince(timed_start) >= args.seconds)
            break;
    }
    double timed_seconds = secondsSince(timed_start);
    setup.store.reset();
    std::filesystem::remove_all(store_dir);

    double err_pct = 0.0;
    if (plan.mode == Mode::Sampled)
        err_pct = sampledIpcErrorPct(plan, first, attempted, failed);

    u64 committed = 0;
    u64 cycles = 0;
    for (const auto &r : first) {
        committed += r.committedInsts;
        cycles += r.cycles;
    }

    std::printf("perfbench %s seed=%llu caller=%s workers=%u jobs/round=%zu "
                "rounds=%zu timed=%.3fs\n",
                plan.name.c_str(), (unsigned long long)plan.seed,
                callerModel(plan), plan.workers, plan.jobs.size(),
                rates.size(), timed_seconds);
    std::printf("  host time unless marked [simulated]; the timing model "
                "is unvalidated against hardware\n");
    // Every round does identical work, so a slower round measures
    // interference from the rest of the host, not the simulator: the
    // fastest round is the least disturbed measurement of its speed.
    const double best_rate = *std::max_element(rates.begin(), rates.end());
    std::printf("  rounds (Minst/s):");
    for (double r : rates)
        std::printf(" %.4f", r);
    std::printf("\n  best round %.4f Minst/s, median round %.4f Minst/s",
                best_rate, median(rates));
    std::printf("\n  setup reps (s):");
    for (double s : setup_seconds)
        std::printf(" %.5f", s);
    std::printf("\n  result_digest %s [simulated]\n",
                resultDigest(plan, first).c_str());
    std::printf("  committed_insts %llu [simulated, one round]\n",
                (unsigned long long)committed);
    std::printf("  cycles %llu [simulated, one round]\n",
                (unsigned long long)cycles);
    std::printf("  failed_job_frac %.6g (%llu/%llu)\n",
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                (unsigned long long)failed, (unsigned long long)attempted);
    if (plan.mode == Mode::Sampled)
        std::printf("  sampled_ipc_err_pct %.6g %% [simulated: sampled vs "
                    "full-detail simulate()]\n",
                    err_pct);

    std::vector<Metric> metrics = {
        {"sim_minst_per_s", best_rate, "Minst/s"},
        {"setup_s", median(setup_seconds), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--tiny]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--tiny") {
            args.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (end && *end == '\0' && !(args.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--work-dir") {
            args.workDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed value for " + flag).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), args.workload) == names.end())
        usage(("unknown workload " + args.workload).c_str());
    return args;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    // A fixed mmap threshold turns off glibc's adaptive one, whose
    // dependence on allocation history made peak_rss_mb jump by ~2 MB
    // between identical runs.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    Args args = parseArgs(argc, argv);
    std::filesystem::create_directories(args.workDir);
    Plan plan = makePlan(args.workload, args.seed, args.tiny);
    return args.trace ? runTraced(plan, args) : runTimed(plan, args);
}
