/**
 * @file
 * Long-running register-file fuzz driver for nightly CI.
 *
 * Runs seeded fuzz rounds over every registered register-file backend
 * (plus the content-aware ablation variants) on the ExperimentRunner
 * worker pool — one seed
 * stream per task, fully deterministic given seed= — until a
 * wall-time budget expires or a counterexample is found. On failure
 * the shrunk counterexample is written as a seed file and the driver
 * exits nonzero; re-execute it with `carf_fuzz_replay <file>`.
 *
 * Keys (key=value args):
 *   seconds=N  wall-time budget (default 10)
 *   ops=N      ops per generated sequence (default 20000)
 *   seed=N     base seed of the deterministic seed schedule (default 1)
 *   jobs=N     worker threads (default: hardware threads)
 *   out=PATH   failing-seed file (default fuzz_fail_<seed>.carfseed)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "sim/experiment_runner.hh"
#include "testing/fuzzer.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    double seconds = static_cast<double>(config.getU64("seconds", 10));
    testing::FuzzGenOptions gen;
    gen.ops = config.getU64("ops", 20000);
    u64 base_seed = config.getU64("seed", 1);
    unsigned jobs =
        config.getU32("jobs", sim::ExperimentRunner::hardwareJobs());
    const std::string out = config.getString("out");
    config.rejectUnreadKeys("fuzz_regfile");
    sim::ExperimentRunner runner(jobs ? jobs : 1);

    std::vector<testing::FuzzConfig> configs =
        testing::standardFuzzConfigs();

    auto start = std::chrono::steady_clock::now();
    auto elapsed = [&]() {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    u64 sequences = 0;
    u64 total_ops = 0;
    u64 next_seed = base_seed;

    std::printf("fuzz_regfile: %u jobs, %zu ops/sequence, %.0fs "
                "budget, base seed %llu\n",
                runner.jobs(), gen.ops, seconds,
                (unsigned long long)base_seed);

    while (elapsed() < seconds) {
        // One deterministic round: 2 sequences per worker, seeds
        // assigned by index so the schedule is independent of timing.
        size_t round = runner.jobs() * 2;
        std::vector<u64> seeds(round);
        for (size_t i = 0; i < round; ++i)
            seeds[i] = next_seed++;

        std::vector<testing::FuzzRoundResult> results(round);
        runner.runTasks(round, [&](size_t i) {
            const testing::FuzzConfig &fc =
                configs[seeds[i] % configs.size()];
            results[i] = testing::fuzzOneSeed(fc, seeds[i], gen);
        });

        for (size_t i = 0; i < round; ++i) {
            sequences++;
            total_ops += results[i].opsRun;
            if (!results[i].failure)
                continue;

            const testing::FuzzFailure &failure = *results[i].failure;
            std::string path =
                !out.empty() ? out
                             : strprintf("fuzz_fail_%llu.carfseed",
                                         (unsigned long long)seeds[i]);
            std::string error;
            if (!results[i].shrunk.writeFile(path, &error))
                warn("cannot write failing seed: %s", error.c_str());
            std::printf("FAIL seed %llu (%s): op %zu (%s): %s\n",
                        (unsigned long long)seeds[i],
                        results[i].shrunk.config.backend.c_str(),
                        failure.opIndex, fuzzOpName(failure.op.kind),
                        failure.message.c_str());
            std::printf("shrunk to %zu ops -> %s\n",
                        results[i].shrunk.ops.size(), path.c_str());
            std::printf("replay: carf_fuzz_replay %s\n", path.c_str());
            return EXIT_FAILURE;
        }
    }

    std::printf("fuzz_regfile: PASS — %llu sequences, %llu ops, "
                "%.1fs\n",
                (unsigned long long)sequences,
                (unsigned long long)total_ops, elapsed());
    return EXIT_SUCCESS;
}
