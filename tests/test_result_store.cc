/**
 * @file
 * Content-addressed result store suite: key canonicalization (stable
 * under field reordering, sensitive to every simulation-relevant
 * field, invalidated by the build fingerprint), bit-identical
 * round-trips through the on-disk file, concurrent writers,
 * corrupt/truncated line tolerance, and the ExperimentRunner
 * read-through path including kill/resume equivalence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/config.hh"
#include "common/fingerprint.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "sim/experiment_runner.hh"
#include "sim/oracle.hh"
#include "sim/reporting.hh"
#include "sim/result_store.hh"
#include "workloads/workload.hh"

namespace carf::sim
{

namespace
{

namespace fs = std::filesystem;

/** Unique scratch directory, removed on scope exit. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
    {
        path = fs::temp_directory_path() /
               ("carf_store_test_" + tag + "_" +
                std::to_string(::getpid()));
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }
};

SimOptions
quick(u64 insts = 10000)
{
    SimOptions options;
    options.maxInsts = insts;
    return options;
}

/**
 * A RunResult with every field set to a distinctive value, including
 * doubles that do not round-trip through short decimal
 * representations — the round-trip tests must prove %.17g fidelity,
 * not luck.
 */
core::RunResult
fabricatedResult()
{
    core::RunResult r;
    r.workload = "fabricated";
    r.config = "test-config";
    r.cycles = 123456789;
    r.committedInsts = 987654321;
    r.ipc = 1.0 / 3.0;
    r.condBranches = 4242;
    r.branchMispredicts = 137;
    r.bypass.restore(11, 13, 17, 19);
    for (unsigned b = 0; b < core::OperandMix::NumBuckets; ++b)
        r.operandMix.counts[b] = 100 + b;
    r.cluster.localOperands = 23;
    r.cluster.crossOperands = 29;
    for (unsigned t = 0; t < 3; ++t) {
        r.intRfAccesses.reads[t] = 31 + t;
        r.intRfAccesses.writes[t] = 37 + t;
    }
    r.intRfAccesses.shortProbeReads = 41;
    r.shortFileWrites = 43;
    r.longAllocStalls = 47;
    r.recoveries = 53;
    r.issueStallCycles = 59;
    r.avgLiveLong = 0.1 + 0.2; // famously not 0.3
    r.avgLiveShort = 2.0 / 7.0;
    r.portConflictOps = 61;
    r.portConflictCycles = 67;
    for (unsigned b = 0; b < core::CycleAccounting::NumBuckets; ++b)
        r.cycleAccounting.counts[b] = 200 + b;
    r.smtThreads = 3;
    r.smtThreadInsts = {71, 73, 79};
    r.smtThreadIpc = {1.0 / 7.0, 0.1 + 0.7, 2.0 / 3.0};
    r.smtShortHits = 83;
    r.smtCrossShortHits = 89;
    r.smtMaxRecoveryWait = 97;
    r.samplingPeriod = 25000;
    r.samplingWarmup = 2001;
    r.samplingMeasure = 1009;
    r.samplingIntervals = 101;
    r.samplingSkippedInsts = 103;
    r.samplingIpcCi95 = 1.0 / 9.0;
    r.wallSeconds = 1.23456789012345678;
    r.traceBuildSeconds = 0.000123456789;
    r.simSeconds = 1.234444433333;
    return r;
}

// Per-type helpers for the field-list round trip: a perturbation that
// keeps every optional block present, and a bitwise comparison.
void perturb(std::string &v) { v += "x"; }
void perturb(u64 &v) { ++v; }
void perturb(unsigned &v) { ++v; }
void perturb(double &v) { v = std::nextafter(v, 1e300); }
template <typename T, size_t N> void perturb(T (&v)[N]) { perturb(v[N - 1]); }
template <typename T> void perturb(std::vector<T> &v) { perturb(v[0]); }
void perturb(core::ClusterStats &v) { ++v.crossOperands; }

void
perturb(core::BypassStats &v)
{
    v.restore(v.bypassed(false), v.bypassed(true), v.regFileReads(false),
              v.regFileReads(true) + 1);
}

template <typename T>
bool
sameBits(const T &a, const T &b)
{
    if constexpr (std::is_arithmetic_v<T>)
        return std::memcmp(&a, &b, sizeof(T)) == 0;
    else if constexpr (std::is_same_v<T, core::BypassStats>)
        return a.bypassed(false) == b.bypassed(false) &&
               a.bypassed(true) == b.bypassed(true) &&
               a.regFileReads(false) == b.regFileReads(false) &&
               a.regFileReads(true) == b.regFileReads(true);
    else if constexpr (std::is_same_v<T, core::ClusterStats>)
        return a.localOperands == b.localOperands &&
               a.crossOperands == b.crossOperands;
    else if constexpr (std::is_same_v<T, std::string>)
        return a == b;
    else
        return std::equal(std::begin(a), std::end(a), std::begin(b),
                          std::end(b), [](const auto &x, const auto &y) {
                              return sameBits(x, y);
                          });
}

} // namespace

TEST(ResultStore, Sha256MatchesKnownVectors)
{
    // FIPS 180-4 vectors: the key derivation is only as trustworthy
    // as the hash underneath it.
    EXPECT_EQ(Sha256::hashHex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(Sha256::hashHex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    Sha256 chunked;
    chunked.update("ab");
    chunked.update("c");
    EXPECT_EQ(chunked.hexDigest(), Sha256::hashHex("abc"));
}

TEST(ResultStore, KeyStableUnderFieldReordering)
{
    auto fields = resultKeyFields("counters", core::CoreParams::baseline(),
                                  quick(), "fp0");
    std::string canonical = resultKeyFromFields(fields);

    std::mt19937 rng(12345);
    for (int trial = 0; trial < 8; ++trial) {
        auto shuffled = fields;
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        EXPECT_EQ(resultKeyFromFields(shuffled), canonical);
    }
}

TEST(ResultStore, KeyCoversSimulationRelevantFields)
{
    auto base_params = core::CoreParams::baseline();
    auto base_options = quick();
    std::string base =
        resultKeyFromFields(resultKeyFields("counters", base_params,
                                            base_options, "fp0"));

    // Workload identity.
    EXPECT_NE(resultKeyFromFields(resultKeyFields("crc", base_params,
                                                  base_options, "fp0")),
              base);

    // A CoreParams field from each bundle the key covers.
    auto p = base_params;
    p.physIntRegs++;
    EXPECT_NE(resultKeyFromFields(
                  resultKeyFields("counters", p, base_options, "fp0")),
              base);
    p = base_params;
    p.memory.memoryLatency++;
    EXPECT_NE(resultKeyFromFields(
                  resultKeyFields("counters", p, base_options, "fp0")),
              base);
    p = base_params;
    p.regFileBackend = "content-aware";
    EXPECT_NE(resultKeyFromFields(
                  resultKeyFields("counters", p, base_options, "fp0")),
              base);

    // SimOptions that alter the run.
    auto o = base_options;
    o.maxInsts++;
    EXPECT_NE(resultKeyFromFields(
                  resultKeyFields("counters", base_params, o, "fp0")),
              base);
    o = base_options;
    o.fastForward = 1000;
    EXPECT_NE(resultKeyFromFields(
                  resultKeyFields("counters", base_params, o, "fp0")),
              base);
}

TEST(ResultStore, PinnedKeysAreStable)
{
    // Store keys of representative jobs, pinned so that no refactor of
    // the key derivation or of the parameter parsers can silently
    // orphan (or alias) stored results.
    auto smt = core::CoreParams::contentAware();
    smt.smtThreads = 2;
    auto smt_options = quick();
    smt_options.smtMix = {"crc"};
    auto sampled = quick();
    sampled.samplingPeriod = 25000;
    auto forwarded = quick();
    forwarded.fastForward = 20000;
    const struct
    {
        core::CoreParams params;
        SimOptions options;
        const char *key;
    } pins[] = {
        {core::CoreParams::baseline(), quick(),
         "d84b3b357a3ec968246522e08b351c79385c5f78d3b255af2dc485aae454d610"},
        {core::CoreParams::contentAware(24, 3, 56), quick(),
         "b81c9a057b32fb823bc4b73d4242c884c120c0c928e8211a22bee77ea959c0df"},
        {core::CoreParams::portReduction(3), quick(),
         "3640c89213fceb5942065ce82762f8324e7349aa3f1de350a73219781baea8eb"},
        {smt, smt_options,
         "85b051c6ea44974b1a06485b1accc18f91f3222a51e7d0f4c0270971c7cb0cbd"},
        {core::CoreParams::contentAware(), sampled,
         "c24972611d20c4d4e58e75320ccfe3fb1446433007cb3ff89094268e684520e8"},
        {core::CoreParams::contentAware(), forwarded,
         "7e75553da7855803e88e554966e754dc89e2d3b2aff5037a6f75c9887cc1c3fa"},
    };
    for (const auto &pin : pins)
        EXPECT_EQ(resultKeyFromFields(resultKeyFields(
                      "counters", pin.params, pin.options, "fp0")),
                  pin.key);
}

TEST(ResultStore, EveryConfigKnobChangesTheKey)
{
    // Each knob configureRun() reads, on the backend that reads it,
    // set to a non-default value: none may alias a stored result.
    const struct
    {
        const char *backend, *key, *value;
    } knobs[] = {
        {"baseline", "phys_int_regs", "96"},
        {"baseline", "read_ports", "4"},
        {"baseline", "write_ports", "3"},
        {"baseline", "insts", "10001"},
        {"baseline", "fast_forward", "5"},
        {"content-aware", "d_plus_n", "24"},
        {"content-aware", "n", "4"},
        {"content-aware", "long", "56"},
        {"content-aware", "stall", "4"},
        {"content-aware", "assoc_short", "1"},
        {"content-aware", "alloc_any", "1"},
        {"content-aware", "extra_bypass", "0"},
        {"port-reduction", "shared_read_ports", "3"},
        {"baseline", "sampling_period", "5000"},
    };
    auto keyOf = [](const Config &config) {
        SimOptions options = quick();
        core::CoreParams params = configureRun(config, options);
        return resultKeyFromFields(
            resultKeyFields("counters", params, options, "fp0"));
    };
    std::set<std::string> covered = {"config"};
    for (const auto &knob : knobs) {
        Config base;
        base.set("config", knob.backend);
        Config changed = base;
        changed.set(knob.key, knob.value);
        EXPECT_NE(keyOf(changed), keyOf(base)) << knob.key;
        EXPECT_TRUE(changed.readKeys().count(knob.key)) << knob.key;
        covered.insert(knob.key);
    }

    // The interval knobs matter only to a sampled run; with sampling off
    // it is inert and shares the full run's key. fast_path= is
    // bit-identical by contract, so it never changes the key.
    for (const char *period : {"0", "5000"}) {
        Config base;
        base.set("config", "baseline");
        base.set("sampling_period", period);
        bool sampled = std::string(period) != "0";
        for (const char *key : {"sampling_warmup", "sampling_measure"}) {
            Config changed = base;
            changed.set(key, "500");
            EXPECT_EQ(keyOf(changed) != keyOf(base), sampled)
                << key << " at sampling_period=" << period;
            covered.insert(key);
        }
        Config stepped = base;
        stepped.set("fast_path", "0");
        EXPECT_EQ(keyOf(stepped), keyOf(base)) << period;
        covered.insert("fast_path");
    }

    // config= itself, and a row above for every key any backend reads.
    std::set<std::string> backend_keys;
    for (const std::string &name : regfile::registry().names()) {
        Config config;
        config.set("config", name);
        EXPECT_TRUE(backend_keys.insert(keyOf(config)).second) << name;
        for (const std::string &key : config.readKeys())
            EXPECT_TRUE(covered.count(key)) << key << " on " << name;
    }
}

TEST(ResultStore, EveryListedFieldRoundTrips)
{
    // Perturb each field of the one field list in turn: the full JSON
    // must change, and parsing must give the perturbed value back
    // bitwise.
    const core::RunResult base = fabricatedResult();
    const std::string base_json = runResultJsonFull(base);
    size_t fields = 0;
    core::forEachResultField([&](const char *name, core::ResultBlock,
                                 auto, auto get) {
        ++fields;
        core::RunResult r = base;
        perturb(get(r));
        std::string json = runResultJsonFull(r);
        EXPECT_NE(json, base_json) << name;
        auto parsed = parseRunResultJson(json);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_TRUE(sameBits(get(*parsed), get(r))) << name;
        EXPECT_EQ(runResultJsonFull(*parsed), json) << name;
    });
    EXPECT_EQ(fields, 37u);
}

TEST(ResultStore, FingerprintInvalidatesKeys)
{
    auto params = core::CoreParams::baseline();
    auto options = quick();
    EXPECT_NE(resultKeyFromFields(
                  resultKeyFields("counters", params, options, "fpA")),
              resultKeyFromFields(
                  resultKeyFields("counters", params, options, "fpB")));

    // And the live binary's fingerprint is a plausible digest.
    std::string fp = buildFingerprint();
    EXPECT_EQ(fp.size(), 64u);
    EXPECT_EQ(fp.find_first_not_of("0123456789abcdef"),
              std::string::npos);
}

TEST(ResultStore, HitReturnsBitIdenticalRunResult)
{
    TempDir dir("roundtrip");
    core::RunResult original = fabricatedResult();

    {
        ResultStore store(dir.str(), "fp0");
        EXPECT_FALSE(store.get("k1").has_value());
        EXPECT_EQ(store.misses(), 1u);
        store.put("k1", original);
        EXPECT_EQ(store.size(), 1u);
    }

    // Reopen from disk: the hit must round-trip every field bitwise,
    // host times included.
    ResultStore store(dir.str(), "fp0");
    EXPECT_EQ(store.size(), 1u);
    auto hit = store.get("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(runResultJsonFull(*hit), runResultJsonFull(original));
    // Bitwise on the nasty doubles, not just string-equal.
    EXPECT_EQ(hit->ipc, original.ipc);
    EXPECT_EQ(hit->avgLiveLong, original.avgLiveLong);
    EXPECT_EQ(hit->wallSeconds, original.wallSeconds);
    EXPECT_EQ(hit->smtThreads, original.smtThreads);
    EXPECT_EQ(hit->smtThreadInsts, original.smtThreadInsts);
    EXPECT_EQ(hit->smtThreadIpc, original.smtThreadIpc);
    EXPECT_EQ(hit->samplingIpcCi95, original.samplingIpcCi95);
}

TEST(ResultStore, ParseRejectsMalformedJson)
{
    std::string good = runResultJsonFull(fabricatedResult());
    ASSERT_TRUE(parseRunResultJson(good).has_value());

    EXPECT_FALSE(parseRunResultJson("").has_value());
    EXPECT_FALSE(parseRunResultJson("{").has_value());
    EXPECT_FALSE(parseRunResultJson("null").has_value());
    // Truncation anywhere must fail, never misparse.
    EXPECT_FALSE(
        parseRunResultJson(good.substr(0, good.size() / 2)).has_value());
    EXPECT_FALSE(
        parseRunResultJson(good.substr(0, good.size() - 1)).has_value());
}

TEST(ResultStore, ConcurrentWriters)
{
    TempDir dir("concurrent");
    constexpr unsigned kThreads = 8;
    constexpr unsigned kPerThread = 25;

    {
        ResultStore store(dir.str(), "fp0");
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < kThreads; ++t) {
            pool.emplace_back([&store, t] {
                for (unsigned i = 0; i < kPerThread; ++i) {
                    core::RunResult r = fabricatedResult();
                    r.cycles = t * 1000 + i;
                    r.workload = strprintf("w%u_%u", t, i);
                    store.put(strprintf("key_%u_%u", t, i), r);
                    // Interleave reads with the writes.
                    store.get(strprintf("key_%u_%u", t, i));
                    store.get("never-written");
                }
            });
        }
        for (auto &th : pool)
            th.join();
        EXPECT_EQ(store.size(), kThreads * kPerThread);
    }

    // Every writer's lines landed whole in the one file: a reload
    // returns each entry bit-identical to what was put.
    ResultStore store(dir.str(), "fp0");
    EXPECT_EQ(store.size(), kThreads * kPerThread);
    EXPECT_EQ(store.skippedLines(), 0u);
    for (unsigned t = 0; t < kThreads; ++t)
        for (unsigned i = 0; i < kPerThread; ++i) {
            core::RunResult expected = fabricatedResult();
            expected.cycles = t * 1000 + i;
            expected.workload = strprintf("w%u_%u", t, i);
            auto hit = store.get(strprintf("key_%u_%u", t, i));
            ASSERT_TRUE(hit.has_value());
            EXPECT_EQ(runResultJsonFull(*hit), runResultJsonFull(expected));
        }
}

TEST(ResultStore, CorruptLineToleratedWithSkip)
{
    TempDir dir("corrupt");
    {
        ResultStore store(dir.str(), "fp0");
        store.put("good1", fabricatedResult());
        store.put("good2", fabricatedResult());
    }

    // Append garbage plus a torn (newline-less) record fragment, the
    // post-SIGKILL shapes.
    auto file = dir.path / "results.ndjson";
    ASSERT_TRUE(fs::exists(file));
    {
        std::ofstream f(file, std::ios::app | std::ios::binary);
        f << "this is not json\n";
        f << "{\"v\":1,\"fingerprint\":\"fp0\",\"key\":\"torn\",\"resu";
    }

    ResultStore store(dir.str(), "fp0");
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.skippedLines(), 2u);
    EXPECT_TRUE(store.get("good1").has_value());
    EXPECT_FALSE(store.get("torn").has_value());

    // A put through the reopened store must seal the torn tail so the
    // new record is loadable afterwards.
    store.put("good3", fabricatedResult());
    ResultStore reloaded(dir.str(), "fp0");
    EXPECT_EQ(reloaded.size(), 3u);
    EXPECT_TRUE(reloaded.get("good3").has_value());
}

TEST(ResultStore, RunnerReadsThroughStore)
{
    TempDir dir("runner");
    ResultStore store(dir.str(), buildFingerprint());

    auto options = quick();
    options.resultStore = &store;
    std::vector<ExperimentJob> jobs = {
        {workloads::findWorkload("counters"), core::CoreParams::baseline(),
         options, "a", nullptr},
        {workloads::findWorkload("crc"), core::CoreParams::baseline(),
         options, "b", nullptr},
    };

    ExperimentRunner runner(2);
    unsigned cached_seen = 0;
    auto first = runner.run(jobs);
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.misses(), 2u);
    EXPECT_EQ(store.size(), 2u);

    auto second = runner.run(
        jobs, [&](const ExperimentProgress &p) {
            if (p.cached)
                cached_seen++;
        });
    EXPECT_EQ(store.hits(), 2u);
    EXPECT_EQ(cached_seen, 2u);
    ASSERT_EQ(second.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(runResultJsonFull(first[i]),
                  runResultJsonFull(second[i]));
}

TEST(ResultStoreDeathTest, RunnerValidatesEveryJobBeforeRunningAny)
{
    // The valid sampled T=1 job comes first; the T=2 sampled job after
    // it can never run. Nothing may simulate, report progress or reach
    // the store before that is fatal.
    TempDir dir("validate");
    ResultStore store(dir.str(), buildFingerprint());
    auto options = quick(4000);
    options.resultStore = &store;
    options.samplingPeriod = 2000;
    options.samplingWarmup = 200;
    options.samplingMeasure = 200;
    core::CoreParams smt = core::CoreParams::baseline();
    smt.smtThreads = 2;
    std::vector<ExperimentJob> jobs = {
        {workloads::findWorkload("counters"), core::CoreParams::baseline(),
         options, "T=1", nullptr},
        {workloads::findWorkload("counters"), smt, options, "T=2",
         nullptr},
    };
    // A progress callback exits with another status, so the death
    // below also shows that none fired.
    EXPECT_EXIT(ExperimentRunner(1).run(
                    jobs, [](const ExperimentProgress &) { std::_Exit(3); }),
                ::testing::ExitedWithCode(1),
                "statistical sampling runs one thread \\(smtThreads=2\\)");
    fs::path file = dir.path / "results.ndjson";
    EXPECT_TRUE(!fs::exists(file) || fs::file_size(file) == 0);
}

TEST(ResultStore, OracleJobsBypassStore)
{
    TempDir dir("oracle");
    ResultStore store(dir.str(), buildFingerprint());

    auto options = quick(5000);
    options.resultStore = &store;
    options.oracleSamplePeriod = 100;
    LiveValueOracle oracle;
    std::vector<ExperimentJob> jobs = {
        {workloads::findWorkload("counters"), core::CoreParams::baseline(),
         options, "oracle-job", &oracle},
    };

    ExperimentRunner runner(1);
    runner.run(jobs);
    u64 samples_first = oracle.samples();
    EXPECT_GT(samples_first, 0u);
    // The store must see neither a lookup nor an insert: a cache hit
    // would silently skip the oracle's sampling side-channel.
    EXPECT_EQ(store.hits() + store.misses(), 0u);
    EXPECT_EQ(store.size(), 0u);

    runner.run(jobs);
    EXPECT_EQ(oracle.samples(), 2 * samples_first);
    EXPECT_EQ(store.size(), 0u);
}

TEST(ResultStore, ResumeMatchesUninterrupted)
{
    // A partial pass (as if killed) followed by a full pass must give
    // the same results as one uninterrupted storeless pass.
    auto params = core::CoreParams::contentAware();
    const auto &suite = workloads::intSuite();

    auto makeJobs = [&](ResultStore *store) {
        auto options = quick();
        options.resultStore = store;
        std::vector<ExperimentJob> jobs;
        for (const auto &w : suite)
            jobs.push_back({w, params, options, w.name, nullptr});
        return jobs;
    };

    ExperimentRunner runner(2);
    auto reference = runner.run(makeJobs(nullptr));

    TempDir dir("resume");
    {
        // "Interrupted" pass: only the first third of the suite.
        ResultStore store(dir.str(), buildFingerprint());
        auto jobs = makeJobs(&store);
        jobs.resize(suite.size() / 3);
        runner.run(jobs);
    }

    ResultStore store(dir.str(), buildFingerprint());
    auto resumed = runner.run(makeJobs(&store));
    EXPECT_EQ(store.hits(), suite.size() / 3);
    ASSERT_EQ(resumed.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(runResultJsonFull(reference[i], false),
                  runResultJsonFull(resumed[i], false))
            << suite[i].name;
}

} // namespace carf::sim
