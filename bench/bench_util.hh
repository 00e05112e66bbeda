/**
 * @file
 * Shared helpers for the experiment harnesses in bench/.
 *
 * Every harness accepts "key=value" overrides; the universal keys are
 *   insts=N    dynamic instruction budget per workload (default 500k)
 *   csv=1      additionally print tables as CSV
 *   jobs=N     simulation worker threads (default: hardware threads;
 *              jobs=1 forces the serial path — output is identical)
 *   progress=1 log per-job completion lines to stderr
 *   out=PATH   where to write the JSON report
 *              (default BENCH_<name>.json in the working directory)
 *   trace_cache=0     disable the shared trace cache (default on;
 *                     results are bit-identical either way)
 *   trace_cache_mb=N  cache byte budget in MiB (default 512)
 *   fast_path=0       disable the exact idle-cycle skip (default on;
 *                     results are bit-identical either way —
 *                     fast_path=0 is for A/B wall-time runs)
 *   sampling_period=N SMARTS-style statistical sampling: instructions
 *                     per period (default 0 = full detail). Sampled
 *                     results are estimates, not bit-identical to
 *                     full runs.
 *   sampling_warmup=N   detailed warm-up instructions per period
 *                       (default 2000)
 *   sampling_measure=N  measured instructions per period
 *                       (default 1000)
 *   regfile=NAME[,NAME...]
 *                     register-file backend selection. A single name
 *                     re-runs the harness with that registered backend
 *                     substituted into every configuration (labels and
 *                     the JSON report gain a " [regfile=NAME]" suffix
 *                     so the output cannot be mistaken for the stock
 *                     run). Harnesses that sweep the whole backend zoo
 *                     (compare_backends) accept a comma-separated list
 *                     to restrict the sweep. Unknown names are fatal,
 *                     listing what is registered.
 *   store_dir=PATH    content-addressed result store directory (see
 *                     sim/result_store.hh). Every suite job reads
 *                     through the store: cached (config, workload,
 *                     code-version) points are served from disk
 *                     bit-identically instead of re-simulated, and
 *                     misses are written back — so repeated runs, and
 *                     different harnesses sharing one store_dir,
 *                     never recompute shared points (the `unlimited`
 *                     reference suite, say). Hit/miss counts print to
 *                     stderr at exit.
 *   result_store=1    as above with the default directory
 *                     "carf_result_store" (result_store=0 disables an
 *                     explicit store_dir=).
 *
 * Tables printed through printTable() and suite runs executed through
 * BenchArgs::runSuite() are also captured into a machine-readable
 * per-harness JSON report; call args.writeReport() at the end of
 * main. See README "Experiment engine" for the schema.
 */

#ifndef CARF_BENCH_BENCH_UTIL_HH
#define CARF_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "common/config.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "emu/trace_cache.hh"
#include "regfile/registry.hh"
#include "sim/experiment_runner.hh"
#include "sim/experiments.hh"
#include "sim/reporting.hh"
#include "sim/result_store.hh"

namespace carf::bench
{

/** The paper's d+n sweep (Figures 5-7, Table 3). */
inline const std::vector<unsigned> kDnSweep = {8, 12, 16, 20, 24, 28, 32};

/** Accumulates one harness's results for the BENCH_<name>.json file. */
class BenchReport
{
  public:
    void
    begin(std::string name, unsigned jobs, u64 max_insts)
    {
        name_ = std::move(name);
        jobs_ = jobs;
        maxInsts_ = max_insts;
    }

    const std::string &name() const { return name_; }

    /** Record one labelled suite run (full per-workload results). */
    void
    addSuite(const std::string &label, const sim::SuiteRun &run)
    {
        suites_.push_back("{\"label\":" + sim::jsonString(label) +
                          ",\"results\":" + sim::suiteRunJson(run) + "}");
    }

    /** Record one rendered table (what the harness printed). */
    void
    addTable(const Table &table)
    {
        tables_.push_back(sim::tableJson(table));
    }

    std::string
    json() const
    {
        std::string out = "{\"bench\":" + sim::jsonString(name_);
        out += strprintf(",\"jobs\":%u", jobs_);
        out += strprintf(",\"max_insts\":%llu",
                         (unsigned long long)maxInsts_);
        out += ",\"suites\":[";
        for (size_t i = 0; i < suites_.size(); ++i)
            out += (i ? "," : "") + suites_[i];
        out += "],\"tables\":[";
        for (size_t i = 0; i < tables_.size(); ++i)
            out += (i ? "," : "") + tables_[i];
        out += "]}";
        return out;
    }

    /** Write the report to @p path; fatal() when the write fails. */
    void
    write(const std::string &path) const
    {
        std::ofstream file(path, std::ios::trunc);
        if (!file)
            fatal("BenchReport: cannot open '%s' for writing",
                  path.c_str());
        file << json() << "\n";
        if (!file.flush())
            fatal("BenchReport: short write to '%s'", path.c_str());
    }

  private:
    std::string name_;
    unsigned jobs_ = 1;
    u64 maxInsts_ = 0;
    std::vector<std::string> suites_;
    std::vector<std::string> tables_;
};

struct BenchArgs
{
    Config config;
    sim::SimOptions options;
    bool csv = false;
    bool progress = false;
    unsigned jobs = 1;
    sim::ExperimentRunner runner;
    /**
     * Trace cache shared by every suite run this harness performs, so
     * each workload is emulated once no matter how many configurations
     * sweep over it. Owned here; options.traceCache points at it.
     */
    std::shared_ptr<emu::TraceCache> traceCache;
    /**
     * Content-addressed result store (store_dir=/result_store= keys);
     * null for a stock run. Owned here; options.resultStore points at
     * it, so every suite job this harness submits reads through it.
     */
    std::shared_ptr<sim::ResultStore> resultStore;
    /**
     * Backends named by the regfile= key, registry-validated, in
     * argument order; empty when the key is absent (stock run).
     */
    std::vector<std::string> regfileOverrides;
    /**
     * Set once backendConfigs() consumes the regfile= selection; the
     * generic per-suite override then stands down so a sweep harness
     * does not apply the list twice.
     */
    mutable bool regfileOverrideConsumed = false;
    mutable BenchReport report;

    static BenchArgs
    parse(const char *bench_name, int argc, char **argv)
    {
        BenchArgs args;
        args.config.parseArgs(argc, argv);
        args.options.maxInsts = args.config.getU64("insts", 500000);
        args.csv = args.config.getBool("csv", false);
        args.progress = args.config.getBool("progress", false);
        args.jobs = static_cast<unsigned>(args.config.getU64(
            "jobs", sim::ExperimentRunner::hardwareJobs()));
        args.runner = sim::ExperimentRunner(args.jobs ? args.jobs : 1);
        if (args.config.getBool("trace_cache", true)) {
            u64 budget_mb =
                args.config.getU64("trace_cache_mb",
                                   emu::TraceCache::kDefaultByteBudget >>
                                       20);
            args.traceCache =
                std::make_shared<emu::TraceCache>(budget_mb << 20);
            args.options.traceCache = args.traceCache.get();
        }
        args.options.fastPath = args.config.getBool("fast_path", true);
        args.options.samplingPeriod =
            args.config.getU64("sampling_period", 0);
        args.options.samplingWarmup = args.config.getU64(
            "sampling_warmup", args.options.samplingWarmup);
        args.options.samplingMeasure = args.config.getU64(
            "sampling_measure", args.options.samplingMeasure);
        args.options.validate();
        std::string store_dir = args.config.getString("store_dir", "");
        if (args.config.getBool("result_store", !store_dir.empty())) {
            if (store_dir.empty())
                store_dir = "carf_result_store";
            args.resultStore = std::make_shared<sim::ResultStore>(
                store_dir, buildFingerprint());
            args.options.resultStore = args.resultStore.get();
        }
        std::string regfile = args.config.getString("regfile", "");
        for (size_t start = 0; start < regfile.size();) {
            size_t comma = regfile.find(',', start);
            if (comma == std::string::npos)
                comma = regfile.size();
            std::string name = regfile.substr(start, comma - start);
            if (!name.empty()) {
                regfile::registry().at(name); // fatal on unknown names
                args.regfileOverrides.push_back(name);
            }
            start = comma + 1;
        }
        args.report.begin(bench_name, args.runner.jobs(),
                          args.options.maxInsts);
        return args;
    }

    /**
     * Apply the regfile= override to @p params: a single named
     * backend replaces the configuration's model, everything else
     * (timing knobs, ports, sub-file geometry) untouched. Harnesses
     * that run fixed configurations take at most one override name;
     * lists are reserved for backendConfigs() sweeps.
     */
    core::CoreParams
    applyRegfileOverride(core::CoreParams params) const
    {
        if (regfileOverrides.empty() || regfileOverrideConsumed)
            return params;
        if (regfileOverrides.size() > 1)
            fatal("regfile=: this harness runs fixed configurations "
                  "and takes a single backend name, not a list");
        params.regFileBackend = regfileOverrides[0];
        return params;
    }

    /** Label decoration matching applyRegfileOverride(). */
    std::string
    decorateLabel(const std::string &label) const
    {
        if (regfileOverrides.empty() || regfileOverrideConsumed)
            return label;
        return label + " [regfile=" + regfileOverrides[0] + "]";
    }

    /**
     * One labelled configuration per selected backend — the
     * comma-separated regfile= list, or every registered backend when
     * the key is absent — each built by CoreParams::forBackend() so
     * the label is exactly the registry name.
     */
    std::vector<std::pair<std::string, core::CoreParams>>
    backendConfigs() const
    {
        std::vector<std::string> names = regfileOverrides;
        regfileOverrideConsumed = true;
        if (names.empty())
            names = regfile::registry().names();
        std::vector<std::pair<std::string, core::CoreParams>> configs;
        configs.reserve(names.size());
        for (const std::string &name : names)
            configs.emplace_back(name, core::CoreParams::forBackend(name));
        return configs;
    }

    /**
     * Run @p suite under @p params on the shared worker pool and
     * record the per-workload results into the JSON report under
     * @p label. Result order (and every table derived from it) is
     * independent of the jobs= setting. The regfile= override, when
     * present, swaps the backend and decorates the label.
     */
    sim::SuiteRun
    runSuite(const std::vector<workloads::Workload> &suite,
             const core::CoreParams &params,
             const std::string &label) const
    {
        std::string tag = decorateLabel(label);
        sim::ExperimentRunner::ProgressFn fn;
        if (progress) {
            fn = [tag](const sim::ExperimentProgress &p) {
                inform("[%s] %zu/%zu %s (%.2fs)", tag.c_str(),
                       p.completed, p.total,
                       p.job.workload.name.c_str(),
                       p.result.wallSeconds);
            };
        }
        auto run = sim::runSuite(suite, applyRegfileOverride(params),
                                 options, runner, fn);
        report.addSuite(tag, run);
        return run;
    }

    /**
     * Run @p suite under every labelled configuration in @p configs
     * as ONE job batch, so the worker pool stays busy across
     * configurations instead of draining at each suite's tail.
     * Per-config SuiteRuns come back in @p configs order, each
     * bit-identical to a lone runSuite() call, and are recorded into
     * the JSON report under their labels.
     */
    std::vector<sim::SuiteRun>
    runSuites(const std::vector<workloads::Workload> &suite,
              const std::vector<std::pair<std::string, core::CoreParams>>
                  &configs) const
    {
        std::vector<sim::ExperimentJob> batch;
        batch.reserve(suite.size() * configs.size());
        for (const auto &[label, params] : configs) {
            core::CoreParams effective = applyRegfileOverride(params);
            for (const auto &w : suite)
                batch.push_back({w, effective, options,
                                 decorateLabel(label), nullptr});
        }

        sim::ExperimentRunner::ProgressFn fn;
        if (progress) {
            fn = [](const sim::ExperimentProgress &p) {
                inform("[%s] %zu/%zu %s (%.2fs)", p.job.tag.c_str(),
                       p.completed, p.total,
                       p.job.workload.name.c_str(),
                       p.result.wallSeconds);
            };
        }
        auto results = runner.run(batch, fn);

        std::vector<sim::SuiteRun> runs(configs.size());
        for (size_t c = 0; c < configs.size(); ++c) {
            auto first = results.begin() +
                         static_cast<long>(c * suite.size());
            runs[c].results.assign(first,
                                   first + static_cast<long>(
                                               suite.size()));
            report.addSuite(decorateLabel(configs[c].first), runs[c]);
        }
        return runs;
    }

    /** Where the JSON report goes (out= override). */
    std::string
    reportPath() const
    {
        return config.getString("out", "BENCH_" + report.name() +
                                           ".json");
    }

    void
    writeReport() const
    {
        report.write(reportPath());
        std::printf("wrote %s\n", reportPath().c_str());
        // Stderr, so table-equivalence diffs of captured stdout stay
        // clean across cold and warm runs.
        if (resultStore) {
            resultStore->writeIndex();
            std::fprintf(stderr,
                         "result store: %llu hits, %llu misses (%s)\n",
                         (unsigned long long)resultStore->hits(),
                         (unsigned long long)resultStore->misses(),
                         resultStore->dir().c_str());
        }
    }
};

inline void
printTable(const Table &table, const BenchArgs &args)
{
    std::fputs(table.render().c_str(), stdout);
    if (args.csv)
        std::fputs(table.renderCsv().c_str(), stdout);
    std::fputs("\n", stdout);
    args.report.addTable(table);
}

inline void
printHeader(const char *experiment, const char *paper_claim)
{
    std::printf("### %s\n", experiment);
    std::printf("paper: %s\n\n", paper_claim);
}

} // namespace carf::bench

#endif // CARF_BENCH_BENCH_UTIL_HH
