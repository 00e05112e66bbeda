/**
 * @file
 * Tests for the sim layer: the facade, suite aggregation, relative
 * IPC, and frequency scaling.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "sim/experiments.hh"
#include "sim/frequency.hh"
#include "sim/reporting.hh"

namespace carf::sim
{

namespace
{

SimOptions
quick(u64 insts = 15000)
{
    SimOptions options;
    options.maxInsts = insts;
    return options;
}

/** configureRun() over "key=value" tokens, every key checked read. */
core::CoreParams
configured(std::initializer_list<const char *> tokens, SimOptions &options)
{
    Config config;
    for (const char *token : tokens)
        config.parseToken(token);
    core::CoreParams params = configureRun(config, options);
    config.rejectUnreadKeys("test");
    return params;
}

/** configureTraceCache() over "key=value" tokens. */
std::shared_ptr<emu::TraceCache>
traceCacheFor(std::initializer_list<const char *> tokens)
{
    Config config;
    for (const char *token : tokens)
        config.parseToken(token);
    auto cache = configureTraceCache(config);
    config.rejectUnreadKeys("test");
    return cache;
}

} // namespace

TEST(Simulator, FacadeRunsAndLabels)
{
    auto result = simulate(workloads::findWorkload("counters"),
                           core::CoreParams::baseline(), quick());
    EXPECT_EQ(result.workload, "counters");
    EXPECT_EQ(result.config, "baseline");
    EXPECT_EQ(result.committedInsts, 15000u);
}

TEST(Simulator, FastForwardKeepsWarmUpPlacementsOutOfTheResult)
{
    // The functional warm-up places Short groups that no ROB-interval
    // tick ages; they are not Short-file writes of the timed window,
    // which here has room for at most one.
    SimOptions options = quick(1);
    options.fastForward = 20000;
    auto result = simulate(workloads::findWorkload("mem_chase"),
                           core::CoreParams::contentAware(), options);
    EXPECT_EQ(result.committedInsts, 1u);
    EXPECT_LE(result.shortFileWrites, 1u);
}

TEST(Simulator, OracleHookReceivesSamplesThroughFacade)
{
    SimOptions options = quick();
    options.oracleSamplePeriod = 8;
    LiveValueOracle oracle;
    simulate(workloads::findWorkload("counters"),
             core::CoreParams::baseline(), options, &oracle);
    EXPECT_GT(oracle.samples(), 100u);
}

TEST(Simulator, SmtThreadsSelectTheSmtCore)
{
    // smtThreads = 2 through simulate() is the two-thread core over
    // the lead workload and its partner, aggregated: the same stripped
    // JSON as driving the core by hand.
    core::CoreParams params = core::CoreParams::contentAware();
    params.smtThreads = 2;
    SimOptions options = quick(10000);
    options.smtMix = {"crc"};
    auto result =
        simulate(workloads::findWorkload("counters"), params, options);
    EXPECT_EQ(result.smtThreads, 2u);

    auto lead = workloads::makeTrace(workloads::findWorkload("counters"),
                                     options.maxInsts);
    auto partner = workloads::makeTrace(workloads::findWorkload("crc"),
                                        options.maxInsts);
    core::Pipeline core(params, 2);
    auto by_hand = core.run({lead.get(), partner.get()}).aggregate();
    EXPECT_EQ(runResultJsonFull(result, false),
              runResultJsonFull(by_hand, false));
}

TEST(SimulatorDeathTest, SmtRejectsFastForward)
{
    core::CoreParams params = core::CoreParams::contentAware();
    params.smtThreads = 2;
    SimOptions options = quick();
    options.fastForward = 1000;
    EXPECT_DEATH((void)simulate(workloads::findWorkload("counters"),
                                params, options),
                 "fastForward warms one thread");
}

TEST(SimulatorDeathTest, SmtRejectsTheOracle)
{
    core::CoreParams params = core::CoreParams::contentAware();
    params.smtThreads = 2;
    SimOptions options = quick();
    options.oracleSamplePeriod = 8;
    LiveValueOracle oracle;
    EXPECT_DEATH((void)simulate(workloads::findWorkload("counters"),
                                params, options, &oracle),
                 "oracle observes one thread");
}

TEST(SimulatorDeathTest, SmtRejectsSampling)
{
    core::CoreParams params = core::CoreParams::contentAware();
    params.smtThreads = 4;
    SimOptions options = quick(30000);
    options.samplingPeriod = 10000;
    EXPECT_DEATH((void)simulate(workloads::findWorkload("counters"),
                                params, options),
                 "sampling runs one thread \\(smtThreads=4\\)");
}

TEST(SimulatorDeathTest, WrappingSumsAreFatal)
{
    // Each sum wraps a u64: the sampler would measure nothing, and the
    // trace budget would shrink to a single record.
    SimOptions sampled = quick();
    sampled.samplingPeriod = 25000;
    sampled.samplingWarmup = ~u64{0};
    sampled.samplingMeasure = 1;
    EXPECT_DEATH(sampled.validate(), "exceeds samplingPeriod");

    SimOptions forwarded = quick(2);
    forwarded.fastForward = ~u64{0};
    EXPECT_DEATH(forwarded.validate(), "overflows a 64-bit record count");
    // The largest sum that fits is accepted.
    forwarded.fastForward = ~u64{0} - 2;
    forwarded.validate();
}

TEST(ConfigureRun, BuildsThePaperConfigurations)
{
    SimOptions options;
    auto ca = configured({"config=content-aware", "d_plus_n=24", "n=3",
                          "long=56"},
                         options);
    auto expect = core::CoreParams::contentAware(24, 3, 56);
    EXPECT_EQ(ca.ca.sim.d(), expect.ca.sim.d());
    EXPECT_EQ(ca.ca.longEntries, 56u);
    EXPECT_EQ(ca.ca.issueStallThreshold, expect.ca.issueStallThreshold);
    EXPECT_EQ(ca.regReadStages, 2u);
    auto pr = configured({"config=port-reduction", "shared_read_ports=3"},
                         options);
    EXPECT_EQ(pr.portRed.sharedReadPorts, 3u);
    EXPECT_EQ(configured({}, options).regFileBackend, "baseline");
    EXPECT_EQ(options.maxInsts, SimOptions{}.maxInsts);
}

TEST(ConfigureRun, RunWindowIsSixtyFourBits)
{
    SimOptions options;
    configured({"fast_forward=4294967296", "insts=4294967297"}, options);
    EXPECT_EQ(options.fastForward, 4294967296ull);
    EXPECT_EQ(options.maxInsts, 4294967297ull);
}

TEST(ConfigureRun, ReadsTheWindowKeys)
{
    SimOptions options;
    configured({"fast_path=0", "sampling_period=5000",
                "sampling_warmup=500", "sampling_measure=700"},
               options);
    EXPECT_FALSE(options.fastPath);
    EXPECT_EQ(options.samplingPeriod, 5000u);
    EXPECT_EQ(options.samplingWarmup, 500u);
    EXPECT_EQ(options.samplingMeasure, 700u);
}

TEST(ConfigureRunDeathTest, BadKnobsAreFatal)
{
    SimOptions options;
    EXPECT_DEATH(configured({"insts=-1"}, options),
                 "not an unsigned integer");
    EXPECT_DEATH(configured({"config=content-aware", "long=4294967296"},
                            options),
                 "fits in 32 bits");
    EXPECT_DEATH(configured({"config=content-aware", "n=8", "d_plus_n=8"},
                            options),
                 "must exceed");
    EXPECT_DEATH(configured({"config=port-reduction",
                             "shared_read_ports=1"},
                            options),
                 "at least 2 shared read ports");
    EXPECT_DEATH(configured({"config=ca"}, options),
                 "unknown register-file backend 'ca'");
    // Another backend's keys stay unread, so they are fatal.
    EXPECT_DEATH(configured({"config=baseline", "d_plus_n=24"}, options),
                 "unknown key 'd_plus_n'");
    EXPECT_DEATH(configured({"config=content-aware",
                             "shared_read_ports=3"},
                            options),
                 "unknown key 'shared_read_ports'");
    // A window validate() rejects is fatal as the line is parsed.
    EXPECT_DEATH(configured({"sampling_period=2500"}, options),
                 "exceeds samplingPeriod");
    EXPECT_DEATH(configured({"sampling_period=5000", "fast_forward=10"},
                            options),
                 "fastForward overlaps");
    EXPECT_DEATH(configured({"sampling_period=5000",
                             "sampling_measure=0"},
                            options),
                 "samplingMeasure must be > 0");
}

TEST(ConfigureTraceCache, ReadsSwitchAndBudget)
{
    EXPECT_EQ(traceCacheFor({})->byteBudget(),
              emu::TraceCache::kDefaultByteBudget);
    EXPECT_EQ(traceCacheFor({"trace_cache_mb=3"})->byteBudget(),
              u64{3} << 20);
    EXPECT_EQ(traceCacheFor({"trace_cache_mb=17592186044415"})
                  ->byteBudget(),
              ~u64{0} << 20);
    EXPECT_EQ(traceCacheFor({"trace_cache=0"}), nullptr);
}

TEST(ConfigureTraceCacheDeathTest, BudgetThatWrapsIsFatal)
{
    // 2^44 MiB is 2^64 bytes: unchecked, it wraps to a 0-byte budget
    // and every trace silently streams.
    EXPECT_DEATH(traceCacheFor({"trace_cache_mb=17592186044416"}),
                 "trace_cache_mb=17592186044416 MiB overflows");
    EXPECT_DEATH(traceCacheFor({"trace_cache_mb=18446744073709551615"}),
                 "overflows a 64-bit byte count");
}

TEST(Experiments, SuiteRunAggregates)
{
    std::vector<workloads::Workload> mini = {
        workloads::findWorkload("counters"),
        workloads::findWorkload("crc"),
    };
    auto run = runSuite(mini, core::CoreParams::contentAware(), quick());
    ASSERT_EQ(run.results.size(), 2u);
    EXPECT_GT(run.meanIpc(), 0.0);
    EXPECT_GT(run.totalAccesses().totalWrites(), 0u);
    EXPECT_GT(run.bypassFraction(), 0.0);
    EXPECT_LT(run.bypassFraction(), 1.0);
}

TEST(Experiments, MeanRelativeIpcIdentityIsOne)
{
    std::vector<workloads::Workload> mini = {
        workloads::findWorkload("counters")};
    auto run = runSuite(mini, core::CoreParams::baseline(), quick());
    EXPECT_DOUBLE_EQ(meanRelativeIpc(run, run), 1.0);
}

TEST(ExperimentsDeathTest, MismatchedSuitesAreFatal)
{
    std::vector<workloads::Workload> a = {
        workloads::findWorkload("counters")};
    std::vector<workloads::Workload> b = {
        workloads::findWorkload("crc")};
    auto ra = runSuite(a, core::CoreParams::baseline(), quick(5000));
    auto rb = runSuite(b, core::CoreParams::baseline(), quick(5000));
    EXPECT_DEATH((void)meanRelativeIpc(ra, rb), "mismatch");
}

TEST(Frequency, GainFromAccessTimes)
{
    EXPECT_NEAR(potentialFrequencyGain(100.0, 85.0), 0.176, 0.001);
    EXPECT_DOUBLE_EQ(potentialFrequencyGain(100.0, 120.0), 0.0);
}

TEST(Frequency, SpeedupComposition)
{
    // Paper §5: 1.5% IPC loss + 5% clock -> ~+3%; +15% -> ~+13%.
    EXPECT_NEAR(frequencyScaledSpeedup(0.985, 0.05), 0.034, 0.002);
    EXPECT_NEAR(frequencyScaledSpeedup(0.985, 0.15), 0.133, 0.002);
    EXPECT_NEAR(frequencyScaledSpeedup(0.983, 0.0), -0.017, 0.001);
}

TEST(Reporting, DescribeConfigMentionsGeometry)
{
    auto params = core::CoreParams::contentAware(20);
    std::string desc = describeConfig(params);
    EXPECT_NE(desc.find("content-aware"), std::string::npos);
    EXPECT_NE(desc.find("d+n=20"), std::string::npos);
    EXPECT_NE(desc.find("K=48"), std::string::npos);
}

TEST(Reporting, JsonContainsStableFields)
{
    auto run = runSuite({workloads::findWorkload("crc")},
                        core::CoreParams::contentAware(), quick(8000));
    std::string json = suiteRunJson(run);
    for (const char *key :
         {"[{\"workload\":\"crc\",\"config\":\"content-aware\",",
          "\"cycles\":", "\"committed_insts\":8000,", "\"ipc\":",
          "\"operand_mix\":[", "\"cluster\":", "\"rf_reads\":[",
          "\"rf_writes\":[", "\"recoveries\":", "\"avg_live_long\":",
          "\"cycle_buckets\":[", "\"wall_seconds\":"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    // A report record is the store's record, host times included.
    EXPECT_EQ(json, "[" + runResultJsonFull(run.results[0]) + "]");
}

TEST(Reporting, SuiteRecordsRoundTripThroughTheParser)
{
    // Solo, two-thread and sampled records, each re-serialized from
    // its parse byte for byte; the SMT and sampling blocks included.
    core::CoreParams smt = core::CoreParams::contentAware();
    smt.smtThreads = 2;
    SimOptions sampled = quick(30000);
    sampled.samplingPeriod = 10000;
    const struct
    {
        core::CoreParams params;
        SimOptions options;
        const char *block;
    } runs[] = {
        {core::CoreParams::contentAware(), quick(8000), "\"cycle_buckets\""},
        {smt, quick(8000), "\"smt_threads\":2,"},
        {core::CoreParams::contentAware(), sampled,
         "\"sampling_intervals\":"},
    };
    for (const auto &r : runs) {
        std::string json = suiteRunJson(
            runSuite({workloads::findWorkload("crc")}, r.params, r.options));
        ASSERT_GE(json.size(), 2u);
        ASSERT_EQ(json.front(), '[');
        ASSERT_EQ(json.back(), ']');
        std::string record = json.substr(1, json.size() - 2);
        EXPECT_NE(record.find(r.block), std::string::npos) << record;
        auto parsed = parseRunResultJson(record);
        ASSERT_TRUE(parsed.has_value()) << record;
        EXPECT_EQ(runResultJsonFull(*parsed), record);
    }
}

TEST(Reporting, SuiteJsonIsArray)
{
    std::vector<workloads::Workload> mini = {
        workloads::findWorkload("counters"),
        workloads::findWorkload("crc"),
    };
    auto run = runSuite(mini, core::CoreParams::baseline(), quick(5000));
    std::string json = suiteRunJson(run);
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"workload\":\"counters\""),
              std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"crc\""), std::string::npos);
}

TEST(Reporting, SuiteTableHasRowPerWorkload)
{
    std::vector<workloads::Workload> mini = {
        workloads::findWorkload("counters"),
        workloads::findWorkload("rle"),
    };
    auto run = runSuite(mini, core::CoreParams::baseline(), quick(5000));
    Table table = suiteIpcTable("t", run);
    EXPECT_EQ(table.rowCount(), 2u);
    EXPECT_EQ(table.cell(0, 0), "counters");
    EXPECT_EQ(table.cell(1, 0), "rle");
}

// --- Long-file pressure (§3.2), counted at writeback ---

namespace
{

/** crc on a 12-entry Long file: the paper's d+n=20, M=8 otherwise. */
core::RunResult
crcOnTwelveLongs(SimOptions options, unsigned threads = 1)
{
    core::CoreParams params = core::CoreParams::contentAware(20, 3, 12);
    params.smtThreads = threads;
    return simulate(workloads::findWorkload("crc"), params, options);
}

} // namespace

TEST(ContentAwarePressure, SoloCountsPinned)
{
    auto result = crcOnTwelveLongs(quick(60000));
    EXPECT_EQ(result.longAllocStalls, 25399u);
    EXPECT_EQ(result.recoveries, 25398u);
}

TEST(ContentAwarePressure, FastForwardCountsOnlyTheTimedWindow)
{
    SimOptions options = quick(40000);
    options.fastForward = 20000;
    auto result = crcOnTwelveLongs(options);
    EXPECT_EQ(result.longAllocStalls, 10225u);
    EXPECT_EQ(result.recoveries, 10225u);
}

TEST(ContentAwarePressure, TwoThreadCountsPinned)
{
    auto result = crcOnTwelveLongs(quick(30000), 2);
    EXPECT_EQ(result.longAllocStalls, 25492u);
    EXPECT_EQ(result.recoveries, 25477u);
}

TEST(ContentAwarePressure, SampledCountsOnlyDetailedWritebacks)
{
    // Between episodes the sampler writes the fast-forwarded
    // architectural values back into the file; on a Long file this
    // small those writes stall and recover too, but they are not
    // timed-window pressure and stay out of the counts.
    SimOptions options = quick(60000);
    options.samplingPeriod = 5000;
    options.samplingWarmup = 1000;
    options.samplingMeasure = 1000;
    auto result = crcOnTwelveLongs(options);
    EXPECT_EQ(result.longAllocStalls, 6146u);
    EXPECT_EQ(result.recoveries, 6146u);
}

} // namespace carf::sim
