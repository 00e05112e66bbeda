/**
 * @file
 * carf_sweep — sharded, resumable sweep orchestrator over the
 * content-addressed result store.
 *
 * Reads a file-driven job set (replacing hard-coded bench grids),
 * resolves every job against the store (sim/result_store.hh), runs
 * only the misses — sharded across the ExperimentRunner worker
 * pool, one job per task — and streams
 * one NDJSON line per result to stdout as it lands. Completed results
 * are flushed to the store's file immediately, so a killed run
 * resumes where it left off: re-invoking with the same store_dir
 * skips every cached key. The merged output file is written
 * temp-then-rename, in job order, without host-time fields, so an
 * interrupted-and-resumed sweep produces output bit-identical to an
 * uninterrupted one.
 *
 * Usage: carf_sweep sweep=FILE [key=value...]
 *   sweep=FILE        job-set file (required; format below)
 *   store_dir=DIR     result store directory (default carf_sweep_store)
 *   out=PATH          merged NDJSON output (default SWEEP_results.ndjson)
 *   jobs=N            worker threads (default: hardware threads)
 *   insts=N ...       default run window: the keys of
 *                     sim::configureWindow(), insts= defaulting to
 *                     500000; per-line keys override
 *   times=1           keep host-time fields in the merged output
 *                     (default 0: deterministic output)
 *   quiet=1           suppress per-result streaming lines
 *   trace_cache=0     disable the shared trace cache (default on)
 *   trace_cache_mb=N  trace cache budget (default 512)
 *   fingerprint=1     print the build fingerprint and exit
 *
 * Sweep-file format: one job template per line; '#' starts a comment.
 * Each line is whitespace-separated key=value tokens; a comma-
 * separated value list expands as a cross-product with every other
 * list on the line. Keys:
 *   workload=NAME|suite:int|suite:fp|suite:stall|suite:all  (required)
 *   config=BACKEND   registered backend name (required)
 *   and the other core and window keys of sim::configureRun()
 *   (d_plus_n= long= stall= phys_int_regs= insts= sampling_period= ...),
 *   spelled as on the simulate command line. Every expanded point
 *   must read all of its keys, so a misspelled key or a key of another
 *   backend (config=baseline,content-aware d_plus_n=8) is fatal before
 *   anything runs.
 *
 * Example:
 *   workload=suite:int config=baseline,unlimited
 *   workload=suite:int config=content-aware d_plus_n=8,16,24,32
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "emu/trace_cache.hh"
#include "sim/experiment_runner.hh"
#include "sim/reporting.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace carf;

namespace
{

/** The workloads a sweep-file workload token names. */
std::vector<workloads::Workload>
resolveWorkloads(const std::string &token)
{
    if (token == "suite:int")
        return workloads::intSuite();
    if (token == "suite:fp")
        return workloads::fpSuite();
    if (token == "suite:stall")
        return workloads::stallSuite();
    if (token == "suite:all")
        return workloads::allWorkloads();
    if (token.rfind("suite:", 0) == 0)
        fatal("carf_sweep: unknown suite '%s' (suite:int, suite:fp, "
              "suite:stall, suite:all)",
              token.c_str());
    return {workloads::findWorkload(token)};
}

/**
 * Parse @p path into one ExperimentJob per expanded grid point, in
 * file order (lines top to bottom, comma lists left to right, suites
 * in registry order) — the deterministic order the merged output
 * keeps.
 */
std::vector<sim::ExperimentJob>
parseSweepFile(const std::string &path, const sim::SimOptions &defaults)
{
    std::ifstream file(path);
    if (!file)
        fatal("carf_sweep: cannot read sweep file '%s'", path.c_str());

    std::vector<sim::ExperimentJob> jobs;
    std::string line;
    size_t line_no = 0;
    while (std::getline(file, line)) {
        ++line_no;
        std::string where = strprintf("%s:%zu", path.c_str(), line_no);

        // Whitespace-separated key=value tokens up to any '#'.
        std::istringstream tokens(line.substr(0, line.find('#')));
        std::vector<std::pair<std::string, std::vector<std::string>>>
            keys;
        for (std::string token; tokens >> token;) {
            size_t eq = token.find('=');
            if (eq == std::string::npos || eq == 0)
                fatal("%s: token '%s' is not key=value", where.c_str(),
                      token.c_str());
            std::string key = token.substr(0, eq);
            for (const auto &seen : keys)
                if (seen.first == key)
                    fatal("%s: duplicate key '%s'", where.c_str(),
                          key.c_str());
            keys.emplace_back(key, splitList(token.substr(eq + 1)));
            if (keys.back().second.empty())
                fatal("%s: key '%s' has no value", where.c_str(),
                      key.c_str());
        }
        if (keys.empty())
            continue;

        // Cross-product expansion, first key outermost.
        std::vector<Config> combos(1);
        for (const auto &[key, values] : keys) {
            std::vector<Config> next;
            next.reserve(combos.size() * values.size());
            for (const Config &combo : combos) {
                for (const std::string &value : values) {
                    next.push_back(combo);
                    next.back().set(key, value);
                }
            }
            combos = std::move(next);
        }

        for (const Config &point : combos) {
            if (!point.has("workload") || !point.has("config"))
                fatal("%s: every job line needs workload= and config=",
                      where.c_str());
            sim::SimOptions options = defaults;
            core::CoreParams params = sim::configureRun(point, options);
            std::string workload = point.getString("workload");
            point.rejectUnreadKeys(where);
            for (const auto &w : resolveWorkloads(workload))
                jobs.push_back({w, params, options,
                                w.name + "/" + params.regFileBackend,
                                nullptr});
        }
    }
    return jobs;
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);

    bool fingerprint = config.getBool("fingerprint", false);
    std::string sweep_path = config.getString("sweep", "");
    std::string store_dir =
        config.getString("store_dir", "carf_sweep_store");
    std::string out = config.getString("out", "SWEEP_results.ndjson");
    bool times = config.getBool("times", false);
    bool quiet = config.getBool("quiet", false);
    unsigned jobs =
        config.getU32("jobs", sim::ExperimentRunner::hardwareJobs());

    sim::SimOptions defaults;
    defaults.maxInsts = 500000;
    sim::configureWindow(config, defaults);
    std::shared_ptr<emu::TraceCache> trace_cache =
        sim::configureTraceCache(config);
    defaults.traceCache = trace_cache.get();
    config.rejectUnreadKeys("carf_sweep");

    if (fingerprint) {
        std::printf("%s\n", buildFingerprint());
        return 0;
    }
    if (sweep_path.empty())
        fatal("carf_sweep: sweep=FILE is required (fingerprint=1 to "
              "print the build fingerprint)");

    std::vector<sim::ExperimentJob> batch =
        parseSweepFile(sweep_path, defaults);
    if (batch.empty())
        fatal("carf_sweep: '%s' expands to zero jobs",
              sweep_path.c_str());

    sim::ResultStore store(store_dir, buildFingerprint());
    for (sim::ExperimentJob &job : batch)
        job.options.resultStore = &store;

    std::printf("sweep-fingerprint: %s\n", buildFingerprint());
    std::printf("sweep-store: %s (%zu entries on open)\n",
                store_dir.c_str(), store.size());
    std::printf("sweep-jobs: %zu\n", batch.size());
    std::fflush(stdout);

    // Stream one NDJSON line per result as it lands (cache hits
    // first, then computed results in completion order). The runner
    // has already flushed computed results into the store's file by
    // the time the callback fires, so a kill during the stream loses
    // nothing.
    sim::ExperimentRunner runner(jobs);
    sim::ExperimentRunner::ProgressFn progress;
    if (!quiet) {
        const sim::ExperimentJob *base = batch.data();
        progress = [&, base](const sim::ExperimentProgress &p) {
            size_t index = static_cast<size_t>(&p.job - base);
            std::printf(
                "{\"job\":%zu,\"tag\":\"%s\",\"cached\":%s,"
                "\"result\":%s}\n",
                index, p.job.tag.c_str(), p.cached ? "true" : "false",
                sim::runResultJsonFull(p.result).c_str());
            std::fflush(stdout);
        };
    }

    auto start = std::chrono::steady_clock::now();
    std::vector<core::RunResult> results = runner.run(batch, progress);
    double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // Merged output: job order, deterministic serialization (host
    // times off by default), written temp-then-rename so readers
    // never observe a partial file and a crash leaves the previous
    // merge intact.
    std::string tmp = out + ".tmp";
    {
        std::ofstream file(tmp, std::ios::trunc);
        if (!file)
            fatal("carf_sweep: cannot write '%s'", tmp.c_str());
        for (size_t i = 0; i < batch.size(); ++i) {
            const sim::ExperimentJob &job = batch[i];
            file << "{\"key\":\""
                 << store.key(job.workload.name, job.params, job.options)
                 << "\",\"result\":"
                 << sim::runResultJsonFull(results[i], times) << "}\n";
        }
        file.flush();
        if (!file)
            fatal("carf_sweep: short write to '%s'", tmp.c_str());
    }
    std::error_code ec;
    std::filesystem::rename(tmp, out, ec);
    if (ec)
        fatal("carf_sweep: cannot rename '%s' to '%s': %s", tmp.c_str(),
              out.c_str(), ec.message().c_str());

    std::printf("sweep-total: %zu\n", batch.size());
    std::printf("sweep-hits: %llu\n", (unsigned long long)store.hits());
    std::printf("sweep-misses: %llu\n",
                (unsigned long long)store.misses());
    std::printf("sweep-seconds: %.3f\n", seconds);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
