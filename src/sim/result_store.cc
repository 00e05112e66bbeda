#include "sim/result_store.hh"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <thread>

#include "common/hash.hh"
#include "common/logging.hh"
#include "sim/experiment_runner.hh"
#include "sim/reporting.hh"

namespace carf::sim
{

namespace fs = std::filesystem;

std::vector<std::pair<std::string, std::string>>
resultKeyFields(const std::string &workload_name,
                const core::CoreParams &params, const SimOptions &options,
                const std::string &fingerprint)
{
    std::vector<std::pair<std::string, std::string>> f;
    f.reserve(64);
    auto add = [&](const char *name, const std::string &value) {
        f.emplace_back(name, value);
    };
    auto addU = [&](const char *name, u64 value) {
        add(name, strprintf("%llu", (unsigned long long)value));
    };

    add("fingerprint", fingerprint);
    add("workload", workload_name);

    // Run options that shape the simulated window. The execution knobs
    // (traceCache, resultStore) are bit-identical by contract and
    // deliberately left out.
    addU("max_insts", options.maxInsts);
    addU("fast_forward", options.fastForward);
    addU("opt_oracle_period", options.oracleSamplePeriod);

    // Statistical-sampling shape. The period is keyed unconditionally
    // so a sampled run (estimated IPC over measured windows) can never
    // alias the full run of the same point. The interval geometry is
    // keyed only when sampling is on — with period 0 the warm-up and
    // measure knobs are inert, and the run must share the plain full
    // run's key (the smt_mix pattern). The fastPath flag is
    // bit-identical by contract and deliberately NOT keyed.
    addU("sampling_period", options.samplingPeriod);
    addU("sampling_warmup",
         options.samplingPeriod ? options.samplingWarmup : 0);
    addU("sampling_measure",
         options.samplingPeriod ? options.samplingMeasure : 0);

    // SMT axis: thread count plus the partner-workload mix. Keyed
    // unconditionally so a solo job (smt_threads=1, empty mix) can
    // never alias an SMT job over the same workload. The mix is
    // keyed only when it takes effect (smtThreads > 1): simulate()
    // ignores it for one thread, so a T=1 job with a populated mix
    // is the same simulated point as the plain solo job and must
    // share its key.
    addU("smt_threads", params.smtThreads);
    std::string mix;
    if (params.smtThreads > 1) {
        for (const std::string &name : options.smtMix) {
            if (!mix.empty())
                mix += "+";
            mix += name;
        }
    }
    add("smt_mix", mix);

    // Core timing parameters, exhaustively.
    addU("fetch_width", params.fetchWidth);
    addU("issue_width", params.issueWidth);
    addU("commit_width", params.commitWidth);
    addU("rob_size", params.robSize);
    addU("lsq_size", params.lsqSize);
    addU("int_iq_size", params.intIqSize);
    addU("fp_iq_size", params.fpIqSize);
    addU("phys_int_regs", params.physIntRegs);
    addU("phys_fp_regs", params.physFpRegs);
    addU("int_rf_read_ports", params.intRfReadPorts);
    addU("int_rf_write_ports", params.intRfWritePorts);
    addU("fp_rf_read_ports", params.fpRfReadPorts);
    addU("fp_rf_write_ports", params.fpRfWritePorts);
    addU("int_fu_count", params.intFuCount);
    addU("fp_fu_count", params.fpFuCount);
    addU("reg_read_stages", params.regReadStages);
    addU("int_wb_stages", params.intWbStages);
    addU("extra_bypass_level", params.extraBypassLevel ? 1 : 0);
    addU("frontend_depth", params.frontendDepth);
    addU("gshare_history_bits", params.gshareHistoryBits);
    addU("btb_entries", params.btbEntries);
    addU("ras_depth", params.rasDepth);
    addU("core_oracle_period", params.oracleSamplePeriod);

    // Register-file backend and every backend parameter bundle. All
    // bundles are keyed unconditionally (they are cheap), so a backend
    // switch and a parameter change can never alias.
    add("regfile_backend", params.regFileBackend);
    addU("ca_d", params.ca.sim.d());
    addU("ca_n", params.ca.sim.n());
    addU("ca_long_entries", params.ca.longEntries);
    addU("ca_issue_stall_threshold", params.ca.issueStallThreshold);
    addU("ca_associative_short", params.ca.associativeShort ? 1 : 0);
    addU("ca_alloc_any_result", params.ca.allocShortOnAnyResult ? 1 : 0);
    addU("pr_shared_read_ports", params.portRed.sharedReadPorts);

    // Memory hierarchy geometry and timing.
    auto addCache = [&](const char *prefix, const mem::CacheParams &c) {
        addU((std::string(prefix) + "_size").c_str(), c.sizeBytes);
        addU((std::string(prefix) + "_assoc").c_str(), c.assoc);
        addU((std::string(prefix) + "_line").c_str(), c.lineBytes);
        addU((std::string(prefix) + "_latency").c_str(), c.hitLatency);
    };
    addCache("il1", params.memory.il1);
    addCache("dl1", params.memory.dl1);
    addCache("l2", params.memory.l2);
    addU("memory_latency", params.memory.memoryLatency);
    addU("dl1_ports", params.memory.dl1Ports);

    return f;
}

std::string
resultKeyFromFields(
    std::vector<std::pair<std::string, std::string>> fields)
{
    std::sort(fields.begin(), fields.end());
    Sha256 hash;
    for (const auto &[name, value] : fields) {
        hash.update(name);
        hash.update("=", 1);
        hash.update(value);
        hash.update("\n", 1);
    }
    return hash.hexDigest();
}

ResultStore::ResultStore(std::string dir, std::string fingerprint,
                         unsigned shards)
    : dir_(std::move(dir)), fingerprint_(std::move(fingerprint)),
      shards_(shards ? shards
                     : std::min(8u, ExperimentRunner::hardwareJobs()))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("ResultStore: cannot create '%s': %s", dir_.c_str(),
              ec.message().c_str());
    shardFiles_.reserve(shards_);
    for (unsigned s = 0; s < shards_; ++s)
        shardFiles_.push_back(std::make_unique<Shard>());
    loadShards();
}

ResultStore::~ResultStore()
{
    writeIndex();
}

std::string
ResultStore::shardPath(unsigned shard) const
{
    return dir_ + strprintf("/shard-%03u.ndjson", shard);
}

namespace
{

/**
 * Parse one shard line:
 *   {"v":1,"fingerprint":"<hex>","key":"<hex>","result":{...}}
 * Fingerprints and keys are hex digests, so no escape handling is
 * needed before the result object.
 */
bool
parseShardLine(const std::string &line, std::string &fingerprint,
               std::string &key, core::RunResult &result)
{
    constexpr std::string_view head = "{\"v\":1,\"fingerprint\":\"";
    if (line.rfind(head, 0) != 0)
        return false;
    size_t fp_begin = head.size();
    size_t fp_end = line.find('"', fp_begin);
    if (fp_end == std::string::npos)
        return false;

    constexpr std::string_view key_head = "\",\"key\":\"";
    // find() from fp_end would also work, but the format is fixed:
    if (line.compare(fp_end, key_head.size(), key_head) != 0)
        return false;
    size_t key_begin = fp_end + key_head.size();
    size_t key_end = line.find('"', key_begin);
    if (key_end == std::string::npos)
        return false;

    constexpr std::string_view result_head = "\",\"result\":";
    if (line.compare(key_end, result_head.size(), result_head) != 0)
        return false;
    size_t obj_begin = key_end + result_head.size();
    if (line.empty() || line.back() != '}' || obj_begin >= line.size())
        return false;
    std::string_view obj(line.data() + obj_begin,
                         line.size() - obj_begin - 1);

    auto parsed = parseRunResultJson(obj);
    if (!parsed)
        return false;
    fingerprint = line.substr(fp_begin, fp_end - fp_begin);
    key = line.substr(key_begin, key_end - key_begin);
    result = std::move(*parsed);
    return true;
}

} // namespace

void
ResultStore::loadShards()
{
    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(dir_)) {
        std::string name = entry.path().filename().string();
        if (name.rfind("shard-", 0) == 0 &&
            name.size() > 7 /* ".ndjson" */ &&
            name.compare(name.size() - 7, 7, ".ndjson") == 0)
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());

    for (const std::string &path : paths) {
        std::ifstream file(path);
        if (!file) {
            warn("ResultStore: cannot read shard '%s'; skipping",
                 path.c_str());
            continue;
        }
        std::string line;
        size_t line_no = 0;
        while (std::getline(file, line)) {
            ++line_no;
            if (line.empty())
                continue;
            std::string fp, key;
            core::RunResult result;
            if (!parseShardLine(line, fp, key, result)) {
                // Expected after a SIGKILL tore the final append;
                // anything else in the middle of a shard is worth the
                // same skip-and-continue treatment.
                warn("ResultStore: skipping corrupt line %zu of '%s'",
                     line_no, path.c_str());
                ++skippedLines_;
                continue;
            }
            auto [it, inserted] =
                entries_.insert_or_assign(std::move(key),
                                          std::move(result));
            (void)it;
            if (inserted)
                ++perFingerprint_[fp];
        }
    }
}

std::string
ResultStore::key(const std::string &workload_name,
                 const core::CoreParams &params,
                 const SimOptions &options) const
{
    return resultKeyFromFields(
        resultKeyFields(workload_name, params, options, fingerprint_));
}

std::optional<core::RunResult>
ResultStore::get(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mapMutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void
ResultStore::put(const std::string &key, const core::RunResult &result)
{
    std::string line = "{\"v\":1,\"fingerprint\":\"" + fingerprint_ +
                       "\",\"key\":\"" + key +
                       "\",\"result\":" + runResultJsonFull(result) +
                       "}\n";

    // One writer slot per worker thread (hashed), so pool workers
    // append to distinct shards almost always and only ever contend on
    // a shard mutex, never on interleaved writes.
    unsigned shard = static_cast<unsigned>(
        std::hash<std::thread::id>()(std::this_thread::get_id()) %
        shards_);
    {
        Shard &s = *shardFiles_[shard];
        std::lock_guard<std::mutex> lock(s.mutex);
        if (!s.file.is_open()) {
            std::string path = shardPath(shard);
            // Seal a torn final line left by a SIGKILL mid-append:
            // the fragment becomes one corrupt line (skipped on load)
            // instead of corrupting the next record.
            std::error_code ec;
            u64 size = fs::exists(path, ec) ? fs::file_size(path, ec) : 0;
            bool needs_seal = false;
            if (!ec && size > 0) {
                std::ifstream tail(path, std::ios::binary);
                tail.seekg(static_cast<std::streamoff>(size - 1));
                char last = '\n';
                tail.get(last);
                needs_seal = last != '\n';
            }
            s.file.open(path, std::ios::app);
            if (!s.file)
                fatal("ResultStore: cannot append to '%s'",
                      path.c_str());
            if (needs_seal)
                s.file << '\n';
        }
        s.file << line;
        s.file.flush();
        if (!s.file)
            fatal("ResultStore: short write to shard %u of '%s'", shard,
                  dir_.c_str());
    }

    std::lock_guard<std::mutex> lock(mapMutex_);
    bool inserted = entries_.insert_or_assign(key, result).second;
    if (inserted)
        ++perFingerprint_[fingerprint_];
}

size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mapMutex_);
    return entries_.size();
}

void
ResultStore::writeIndex() const
{
    std::string json;
    u64 total = 0;
    {
        std::lock_guard<std::mutex> lock(mapMutex_);
        json = "{\"v\":1";
        json += strprintf(",\"shards\":%u", shards_);
        json += ",\"fingerprints\":{";
        bool first = true;
        for (const auto &[fp, count] : perFingerprint_) {
            json += strprintf("%s\"%s\":%llu", first ? "" : ",",
                              fp.c_str(), (unsigned long long)count);
            total += count;
            first = false;
        }
        json += strprintf("},\"entries\":%llu}",
                          (unsigned long long)total);
    }

    std::string path = dir_ + "/index.json";
    std::string tmp = path + ".tmp";
    {
        std::ofstream file(tmp, std::ios::trunc);
        if (!file) {
            warn("ResultStore: cannot write '%s'", tmp.c_str());
            return;
        }
        file << json << "\n";
        file.flush();
        if (!file) {
            warn("ResultStore: short write to '%s'", tmp.c_str());
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        warn("ResultStore: cannot rename '%s' into place: %s",
             tmp.c_str(), ec.message().c_str());
}

} // namespace carf::sim
