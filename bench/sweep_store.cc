/**
 * @file
 * Result-store cold/warm benchmark: the 4-configuration x 21-workload
 * sweep (unlimited, baseline, content-aware, port-reduction over all
 * workloads), run twice through one store directory.
 *
 * The cold pass simulates every point and writes the store; the warm
 * pass reopens the store from disk (fresh ResultStore, fresh runner)
 * and must serve every point as a cache hit, bit-identically. The
 * table and BENCH_sweep_store.json report both wall-clocks and the
 * speedup — the ROADMAP item 2 acceptance number.
 *
 * Extra keys (on top of the universal bench_util keys):
 *   sweep_dir=PATH    store directory
 *                     (default BENCH_sweep_store.store)
 *   fresh=0           keep an existing store directory — the "cold"
 *                     pass is then whatever the store makes of it
 *                     (default 1: wipe it for an honest cold pass)
 *   min_speedup=X     exit nonzero when warm speedup < X (default 0:
 *                     report only)
 *
 * Note store_dir= (the universal key) is deliberately NOT used for
 * the benched store: that key attaches a store to the harness itself,
 * which would serve the cold pass from previous runs.
 */

#include "bench_util.hh"

#include <chrono>
#include <filesystem>

#include "sim/result_store.hh"

using namespace carf;

namespace
{

struct PassStats
{
    double seconds = 0.0;
    u64 hits = 0;
    u64 misses = 0;
    std::vector<core::RunResult> results;
};

PassStats
runPass(const std::vector<sim::ExperimentJob> &batch,
        const std::string &store_dir, const bench::BenchArgs &args)
{
    // A fresh store (reloaded from disk) and a fresh batch per pass:
    // the warm pass must get everything from the file, not from
    // still-warm process state.
    sim::ResultStore store(store_dir, buildFingerprint());
    std::vector<sim::ExperimentJob> pass_batch = batch;
    for (auto &job : pass_batch)
        job.options.resultStore = &store;

    auto start = std::chrono::steady_clock::now();
    PassStats stats;
    stats.results = args.runner.run(pass_batch);
    stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    stats.hits = store.hits();
    stats.misses = store.misses();
    return stats;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("sweep_store", argc, argv);
    bench::printHeader(
        "Result store: cold vs warm sweep "
        "(4 configurations x all workloads)",
        "not a paper figure — ROADMAP item 2: a warm re-run through "
        "the content-addressed store must be >= 10x faster than cold");

    std::string store_dir =
        args.config.getString("sweep_dir", "BENCH_sweep_store.store");
    double min_speedup = args.config.getDouble("min_speedup", 0.0);
    bool fresh = args.config.getBool("fresh", true);
    args.readRegfileKey();
    args.rejectUnreadKeys();
    if (fresh)
        std::filesystem::remove_all(store_dir);

    std::vector<std::pair<std::string, core::CoreParams>> configs = {
        {"unlimited", core::CoreParams::unlimited()},
        {"baseline", core::CoreParams::baseline()},
        {"content-aware", core::CoreParams::contentAware()},
        {"port-reduction", core::CoreParams::portReduction()},
    };
    const auto &suite = workloads::allWorkloads();

    std::vector<sim::ExperimentJob> batch;
    batch.reserve(configs.size() * suite.size());
    for (const auto &[label, params] : configs)
        for (const auto &w : suite)
            batch.push_back({w, args.applyRegfileOverride(params),
                             args.options, args.decorateLabel(label),
                             nullptr});

    PassStats cold = runPass(batch, store_dir, args);
    PassStats warm = runPass(batch, store_dir, args);

    if (warm.hits != batch.size())
        fatal("warm pass expected %zu cache hits, got %llu hits / "
              "%llu misses",
              batch.size(), (unsigned long long)warm.hits,
              (unsigned long long)warm.misses);
    for (size_t i = 0; i < batch.size(); ++i) {
        if (sim::runResultJsonFull(cold.results[i], false) !=
            sim::runResultJsonFull(warm.results[i], false))
            fatal("warm result %zu (%s) is not bit-identical to cold",
                  i, batch[i].tag.c_str());
    }

    double speedup =
        warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0;

    Table table("sweep store: cold vs warm "
                "(" +
                std::to_string(configs.size()) + " configs x " +
                std::to_string(suite.size()) + " workloads)");
    table.setColumns({"pass", "seconds", "hits", "misses"});
    table.addRow({"cold", strprintf("%.3f", cold.seconds),
                  strprintf("%llu", (unsigned long long)cold.hits),
                  strprintf("%llu", (unsigned long long)cold.misses)});
    table.addRow({"warm", strprintf("%.3f", warm.seconds),
                  strprintf("%llu", (unsigned long long)warm.hits),
                  strprintf("%llu", (unsigned long long)warm.misses)});
    table.addRow({"speedup", strprintf("%.1fx", speedup), "", ""});
    bench::printTable(table, args);

    args.writeReport();

    if (min_speedup > 0.0 && speedup < min_speedup) {
        std::fprintf(stderr,
                     "FAIL: warm speedup %.1fx below required %.1fx\n",
                     speedup, min_speedup);
        return 1;
    }
    return 0;
}
