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
 * are flushed to the store's shards immediately, so a killed run
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
 *   insts=N           default instruction budget (default 500000;
 *                     per-line insts= overrides)
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
 *   workload=NAME|suite:int|suite:fp|suite:all   (required)
 *   config=BACKEND       registry backend/config name (required;
 *                        CoreParams::forBackend semantics)
 *   d_plus_n=N n=N long=N stall=N   content-aware geometry
 *   shared_read_ports=N  port-reduction pool size
 *   phys_int_regs=N read_ports=N write_ports=N   flat-file geometry
 *   insts=N fast_forward=N          per-job run window
 *
 * Example:
 *   workload=suite:int config=baseline,unlimited
 *   workload=suite:int config=content-aware d_plus_n=8,16,24,32
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "emu/trace_cache.hh"
#include "sim/experiment_runner.hh"
#include "sim/reporting.hh"
#include "sim/result_store.hh"
#include "workloads/workload.hh"

using namespace carf;

namespace
{

std::vector<std::string>
splitCommas(const std::string &value)
{
    std::vector<std::string> out;
    for (size_t start = 0; start <= value.size();) {
        size_t comma = value.find(',', start);
        if (comma == std::string::npos)
            comma = value.size();
        if (comma > start)
            out.push_back(value.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

const char *const kSweepKeys[] = {
    "workload", "config", "d_plus_n", "n", "long", "stall",
    "shared_read_ports", "phys_int_regs", "read_ports", "write_ports",
    "insts", "fast_forward",
};

bool
knownSweepKey(const std::string &key)
{
    for (const char *k : kSweepKeys)
        if (key == k)
            return true;
    return false;
}

u64
parseU64(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, 0);
    if (!end || *end != '\0' || value.empty())
        fatal("carf_sweep: bad value '%s' for key '%s'", value.c_str(),
              key.c_str());
    return v;
}

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

/** One fully resolved assignment of a line's keys to single values. */
core::CoreParams
buildParams(const std::map<std::string, std::string> &kv)
{
    auto params = core::CoreParams::forBackend(kv.at("config"));
    unsigned dn = params.ca.sim.d() + params.ca.sim.n();
    unsigned n = params.ca.sim.n();
    bool sim_touched = false;
    for (const auto &[key, value] : kv) {
        if (key == "workload" || key == "config")
            continue;
        u64 v = parseU64(key, value);
        if (key == "d_plus_n") {
            dn = static_cast<unsigned>(v);
            sim_touched = true;
        } else if (key == "n") {
            n = static_cast<unsigned>(v);
            sim_touched = true;
        } else if (key == "long") {
            params.ca.longEntries = static_cast<unsigned>(v);
        } else if (key == "stall") {
            params.ca.issueStallThreshold = static_cast<unsigned>(v);
        } else if (key == "shared_read_ports") {
            params.portRed.sharedReadPorts = static_cast<unsigned>(v);
        } else if (key == "phys_int_regs") {
            params.physIntRegs = static_cast<unsigned>(v);
        } else if (key == "read_ports") {
            params.intRfReadPorts = static_cast<unsigned>(v);
        } else if (key == "write_ports") {
            params.intRfWritePorts = static_cast<unsigned>(v);
        }
    }
    if (sim_touched) {
        if (n >= dn)
            fatal("carf_sweep: d_plus_n=%u must exceed n=%u", dn, n);
        params.ca.sim = regfile::SimilarityParams(dn - n, n);
        params.ca.sim.validate();
    }
    return params;
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
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);

        // Tokenize on whitespace.
        std::vector<std::pair<std::string, std::vector<std::string>>>
            keys;
        for (size_t pos = 0; pos < line.size();) {
            while (pos < line.size() &&
                   (line[pos] == ' ' || line[pos] == '\t'))
                ++pos;
            size_t end = pos;
            while (end < line.size() && line[end] != ' ' &&
                   line[end] != '\t')
                ++end;
            if (end > pos) {
                std::string token = line.substr(pos, end - pos);
                size_t eq = token.find('=');
                if (eq == std::string::npos || eq == 0)
                    fatal("%s:%zu: token '%s' is not key=value",
                          path.c_str(), line_no, token.c_str());
                std::string key = token.substr(0, eq);
                if (!knownSweepKey(key))
                    fatal("%s:%zu: unknown sweep key '%s'", path.c_str(),
                          line_no, key.c_str());
                keys.emplace_back(key,
                                  splitCommas(token.substr(eq + 1)));
                if (keys.back().second.empty())
                    fatal("%s:%zu: key '%s' has no value", path.c_str(),
                          line_no, key.c_str());
            }
            pos = end;
        }
        if (keys.empty())
            continue;

        std::map<std::string, std::string> kv;
        for (const auto &[key, values] : keys) {
            (void)values;
            if (kv.count(key))
                fatal("%s:%zu: duplicate key '%s'", path.c_str(),
                      line_no, key.c_str());
            kv[key] = "";
        }
        if (!kv.count("workload") || !kv.count("config"))
            fatal("%s:%zu: every job line needs workload= and config=",
                  path.c_str(), line_no);

        // Cross-product expansion, first key outermost.
        std::vector<std::map<std::string, std::string>> combos{{}};
        for (const auto &[key, values] : keys) {
            std::vector<std::map<std::string, std::string>> next;
            next.reserve(combos.size() * values.size());
            for (const auto &combo : combos) {
                for (const std::string &value : values) {
                    auto extended = combo;
                    extended[key] = value;
                    next.push_back(std::move(extended));
                }
            }
            combos = std::move(next);
        }

        for (const auto &combo : combos) {
            core::CoreParams params = buildParams(combo);
            sim::SimOptions options = defaults;
            if (auto it = combo.find("insts"); it != combo.end())
                options.maxInsts = parseU64("insts", it->second);
            if (auto it = combo.find("fast_forward"); it != combo.end())
                options.fastForward =
                    parseU64("fast_forward", it->second);
            for (const auto &w : resolveWorkloads(combo.at("workload")))
                jobs.push_back({w, params, options,
                                w.name + "/" + combo.at("config"),
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

    if (config.getBool("fingerprint", false)) {
        std::printf("%s\n", buildFingerprint());
        return 0;
    }

    std::string sweep_path = config.getString("sweep", "");
    if (sweep_path.empty())
        fatal("carf_sweep: sweep=FILE is required (fingerprint=1 to "
              "print the build fingerprint)");
    std::string store_dir =
        config.getString("store_dir", "carf_sweep_store");
    std::string out = config.getString("out", "SWEEP_results.ndjson");
    bool times = config.getBool("times", false);
    bool quiet = config.getBool("quiet", false);
    unsigned jobs = static_cast<unsigned>(
        config.getU64("jobs", sim::ExperimentRunner::hardwareJobs()));

    sim::SimOptions defaults;
    defaults.maxInsts = config.getU64("insts", 500000);
    std::shared_ptr<emu::TraceCache> trace_cache;
    if (config.getBool("trace_cache", true)) {
        u64 budget_mb = config.getU64(
            "trace_cache_mb", emu::TraceCache::kDefaultByteBudget >> 20);
        trace_cache = std::make_shared<emu::TraceCache>(budget_mb << 20);
        defaults.traceCache = trace_cache.get();
    }

    sim::ResultStore store(store_dir, buildFingerprint(), jobs);
    defaults.resultStore = &store;

    std::vector<sim::ExperimentJob> batch =
        parseSweepFile(sweep_path, defaults);
    if (batch.empty())
        fatal("carf_sweep: '%s' expands to zero jobs",
              sweep_path.c_str());

    std::printf("sweep-fingerprint: %s\n", buildFingerprint());
    std::printf("sweep-store: %s (%zu entries on open)\n",
                store_dir.c_str(), store.size());
    std::printf("sweep-jobs: %zu\n", batch.size());
    std::fflush(stdout);

    // Stream one NDJSON line per result as it lands (cache hits
    // first, then computed results in completion order). The runner
    // has already flushed computed results into the store's shards by
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
    store.writeIndex();

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
