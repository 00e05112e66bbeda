/**
 * @file
 * Tests for the register-file model-checking subsystem: the shadow
 * oracle, the seed-file format, the biased generator, bounded
 * stateful fuzz runs over the standard configurations, and the
 * counterexample shrinker — including the required demonstration that
 * an injected Short-file refcount bug is caught, shrunk, and
 * replayable.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "regfile/content_aware.hh"
#include "testing/fuzzer.hh"

namespace carf::testing
{

namespace
{

FuzzConfig
paperConfig()
{
    // Defaults: content-aware, d=17 n=3 K=48, 64 tags.
    return FuzzConfig{};
}

} // namespace

TEST(ShadowRegFile, MirrorsWritesAndReleases)
{
    ShadowRegFile shadow(8, 8, 4);
    shadow.noteWrite(3, 0x1234, regfile::ValueType::Simple, 0);
    EXPECT_TRUE(shadow.live(3));
    EXPECT_EQ(shadow.value(3), 0x1234u);
    shadow.noteWrite(4, 0xdead, regfile::ValueType::Short, 2);
    EXPECT_EQ(shadow.shortRefs(2), 1u);
    shadow.noteWrite(5, 0xbeef, regfile::ValueType::Long, 1);
    EXPECT_EQ(shadow.freeLongEntries(), 3u);
    EXPECT_EQ(shadow.liveLongEntries(), 1u);

    shadow.noteRelease(4);
    EXPECT_EQ(shadow.shortRefs(2), 0u);
    shadow.noteRelease(5);
    EXPECT_EQ(shadow.freeLongEntries(), 4u);
    shadow.noteRelease(5); // releasing a dead tag is a no-op
    EXPECT_EQ(shadow.freeLongEntries(), 4u);
}

TEST(ShadowRegFile, OverflowLongEntriesBypassFreeList)
{
    ShadowRegFile shadow(8, 8, 2);
    // Index >= K marks a pseudo-deadlock overflow entry.
    shadow.noteWrite(0, 0x1, regfile::ValueType::Long, 5);
    EXPECT_EQ(shadow.freeLongEntries(), 2u);
    EXPECT_EQ(shadow.liveLongEntries(), 1u);
    shadow.noteRelease(0);
    EXPECT_EQ(shadow.freeLongEntries(), 2u);
}

TEST(ShadowRegFile, CrossChecksContentAwareFile)
{
    FuzzConfig config = paperConfig();
    auto file = config.makeFile("t");
    ShadowRegFile shadow(config.entries, config.ca.sim.shortEntries(),
                         config.ca.longEntries);
    auto *ca = dynamic_cast<regfile::ContentAwareRegFile *>(file.get());
    ASSERT_NE(ca, nullptr);

    auto access = file->write(7, 0xdeadbeefcafef00dull);
    shadow.noteWrite(7, 0xdeadbeefcafef00dull, access.type,
                     ca->peekSubIndex(7));
    EXPECT_EQ(shadow.check(*file), "");

    // A divergence the oracle must flag: drop the implementation's
    // value without telling the oracle.
    file->release(7);
    EXPECT_NE(shadow.check(*file), "");
}

TEST(FuzzCase, SeedFileRoundTrip)
{
    FuzzCase original;
    original.config.backend = "content-aware";
    original.config.entries = 32;
    original.config.portRed.sharedReadPorts = 3;
    original.config.ca.sim = {14, 4};
    original.config.ca.longEntries = 12;
    original.config.ca.issueStallThreshold = 3;
    original.config.ca.associativeShort = true;
    original.ops = {
        {FuzzOpKind::Write, 3, 0xdeadbeefull},
        {FuzzOpKind::WriteForced, 4, 0xffffffffffffffffull},
        {FuzzOpKind::Read, 3, 0},
        {FuzzOpKind::Release, 3, 0},
        {FuzzOpKind::NoteAddress, 0, 0x40138000ull},
        {FuzzOpKind::RobInterval, 0, 0},
        {FuzzOpKind::Reset, 0, 0},
        {FuzzOpKind::InjectShortRefLeak, 0, 5},
    };

    std::string error;
    auto parsed = FuzzCase::parse(original.serialize(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->config.backend, original.config.backend);
    EXPECT_EQ(parsed->config.entries, original.config.entries);
    EXPECT_EQ(parsed->config.portRed.sharedReadPorts,
              original.config.portRed.sharedReadPorts);
    EXPECT_EQ(parsed->config.ca.sim.d(), original.config.ca.sim.d());
    EXPECT_EQ(parsed->config.ca.sim.n(), original.config.ca.sim.n());
    EXPECT_EQ(parsed->config.ca.longEntries,
              original.config.ca.longEntries);
    EXPECT_EQ(parsed->config.ca.issueStallThreshold,
              original.config.ca.issueStallThreshold);
    EXPECT_EQ(parsed->config.ca.associativeShort,
              original.config.ca.associativeShort);
    EXPECT_EQ(parsed->ops, original.ops);
}

TEST(FuzzCase, ParseRejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(FuzzCase::parse("not a seed file", &error));
    EXPECT_NE(error.find("header"), std::string::npos);

    EXPECT_FALSE(FuzzCase::parse("carf-fuzz-seed v1\nbogus 3\n",
                                 &error));
    EXPECT_FALSE(
        FuzzCase::parse("carf-fuzz-seed v1\nops 2\nW 1 0x5\n", &error));
    EXPECT_NE(error.find("expected 2 ops"), std::string::npos);
}

TEST(FuzzGenerator, DeterministicAndCoversAllOps)
{
    FuzzConfig config = paperConfig();
    FuzzGenOptions options;
    options.ops = 5000;
    Rng a(99), b(99);
    auto ops_a = generateOps(config, a, options);
    auto ops_b = generateOps(config, b, options);
    EXPECT_EQ(ops_a, ops_b);

    unsigned seen[8] = {};
    for (const FuzzOp &op : ops_a)
        ++seen[static_cast<unsigned>(op.kind)];
    EXPECT_GT(seen[static_cast<unsigned>(FuzzOpKind::Write)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(FuzzOpKind::WriteForced)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(FuzzOpKind::Read)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(FuzzOpKind::Release)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(FuzzOpKind::NoteAddress)], 0u);
    EXPECT_GT(seen[static_cast<unsigned>(FuzzOpKind::RobInterval)], 0u);
    // Fault injection is never generated, only hand-inserted by tests.
    EXPECT_EQ(seen[static_cast<unsigned>(FuzzOpKind::InjectShortRefLeak)],
              0u);
}

/**
 * Bounded fuzz over the standard configurations — every backend in
 * the registry plus the associative-Short and alloc-on-any-result
 * content-aware ablations: >=10k ops each must pass every per-step
 * check. A newly registered backend joins this sweep automatically.
 */
TEST(BoundedFuzz, StandardConfigsPassTenThousandOps)
{
    FuzzGenOptions options;
    options.ops = 10000;
    auto configs = standardFuzzConfigs();
    ASSERT_GE(configs.size(),
              regfile::registry().names().size() + 2);
    for (size_t c = 0; c < configs.size(); ++c) {
        for (u64 seed : {u64{1}, u64{2}}) {
            FuzzRoundResult result =
                fuzzOneSeed(configs[c], seed * 1000 + c, options);
            EXPECT_FALSE(result.failure.has_value())
                << configs[c].backend << " config "
                << c << " seed " << seed << ": op "
                << result.failure->opIndex << ": "
                << result.failure->message;
            EXPECT_EQ(result.opsRun, options.ops);
        }
    }
}

/**
 * Multithreaded shadow-oracle mode: N interleaved op streams against
 * the one shared file and one shared oracle. Short refcounts and Long
 * free-list integrity must hold across every interleaving, for the
 * content-aware file and the whole backend zoo.
 */
TEST(MultiThreadFuzz, InterleavedStreamsPassTenThousandOps)
{
    FuzzGenOptions options;
    options.ops = 10000;
    for (unsigned threads : {2u, 4u}) {
        for (FuzzConfig config : standardFuzzConfigs()) {
            config.threads = threads;
            FuzzRoundResult result =
                fuzzOneSeed(config, 4242 + threads, options);
            EXPECT_FALSE(result.failure.has_value())
                << config.backend << " T=" << threads << ": op "
                << result.failure->opIndex << ": "
                << result.failure->message;
            EXPECT_EQ(result.opsRun, options.ops);
        }
    }
}

/** Threaded generation is deterministic and actually interleaves. */
TEST(MultiThreadFuzz, GeneratorIsDeterministicAndInterleaves)
{
    FuzzConfig config = paperConfig();
    config.threads = 4;
    FuzzGenOptions options;
    options.ops = 4000;
    Rng a(7), b(7);
    auto ops_a = generateOps(config, a, options);
    auto ops_b = generateOps(config, b, options);
    EXPECT_EQ(ops_a, ops_b);

    // Every thread contributes, and adjacent ops switch threads often
    // enough that this is a genuine interleaving, not concatenation.
    unsigned per_thread[4] = {};
    unsigned switches = 0;
    for (size_t i = 0; i < ops_a.size(); ++i) {
        ASSERT_LT(ops_a[i].tid, 4u);
        ++per_thread[ops_a[i].tid];
        if (i && ops_a[i].tid != ops_a[i - 1].tid)
            ++switches;
    }
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_GT(per_thread[t], options.ops / 8);
    EXPECT_GT(switches, static_cast<unsigned>(ops_a.size() / 4));
}

/** Seed files round-trip the thread dimension. */
TEST(MultiThreadFuzz, SeedFileRoundTripsThreads)
{
    FuzzCase original;
    original.config = paperConfig();
    original.config.threads = 3;
    original.ops = {
        {FuzzOpKind::Write, 3, 0xdeadull, 0},
        {FuzzOpKind::Write, 17, 0xbeefull, 1},
        {FuzzOpKind::Read, 17, 0, 2},
        {FuzzOpKind::Release, 3, 0, 1},
    };
    std::string error;
    auto parsed = FuzzCase::parse(original.serialize(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->config.threads, 3u);
    EXPECT_EQ(parsed->ops, original.ops);
}

/** ddmin shrinking stays sound on interleaved multithreaded cases. */
TEST(MultiThreadFuzz, InjectedLeakIsCaughtAndShrunk)
{
    FuzzConfig config = paperConfig();
    config.threads = 4;
    Rng rng(77);
    FuzzGenOptions options;
    options.ops = 2000;
    FuzzCase fuzz_case{config, generateOps(config, rng, options)};
    fuzz_case.ops.insert(fuzz_case.ops.begin() + 1000,
                         FuzzOp{FuzzOpKind::InjectShortRefLeak, 0, 3, 2});

    auto failure = runCase(fuzz_case);
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(failure->op.kind, FuzzOpKind::InjectShortRefLeak);

    FuzzCase minimal = shrinkCase(fuzz_case);
    ASSERT_EQ(minimal.ops.size(), 1u);
    EXPECT_EQ(minimal.ops[0].kind, FuzzOpKind::InjectShortRefLeak);

    // The shrunk seed file replays to the same failure.
    std::string error;
    auto replayed = FuzzCase::parse(minimal.serialize(), &error);
    ASSERT_TRUE(replayed.has_value()) << error;
    ASSERT_TRUE(runCase(*replayed).has_value());
}

/** Tiny Long file: the stall/recovery edges must hold up under fuzz. */
TEST(BoundedFuzz, LongPressureConfigPasses)
{
    FuzzConfig config = paperConfig();
    config.ca.longEntries = 6;
    config.ca.issueStallThreshold = 2;
    config.entries = 32;
    FuzzGenOptions options;
    options.ops = 10000;
    options.exhaustionChance = 0.02;
    FuzzRoundResult result = fuzzOneSeed(config, 77, options);
    EXPECT_FALSE(result.failure.has_value())
        << "op " << result.failure->opIndex << ": "
        << result.failure->message;
}

/** The biased generator must actually exercise all three value types. */
TEST(BoundedFuzz, ExercisesAllValueTypes)
{
    FuzzConfig config = paperConfig();
    Rng rng(5);
    FuzzGenOptions options;
    options.ops = 10000;
    FuzzCase fuzz_case{config, generateOps(config, rng, options)};
    // reset() zeroes the access counters; drop resets so the counts
    // cover the whole run (any subsequence is executable).
    std::erase_if(fuzz_case.ops, [](const FuzzOp &op) {
        return op.kind == FuzzOpKind::Reset;
    });

    FuzzHarness harness(config);
    for (const FuzzOp &op : fuzz_case.ops)
        ASSERT_EQ(harness.step(op), "");
    const auto &counts = harness.file().accessCounts();
    EXPECT_GT(counts.writes[0], 0u) << "no simple writes";
    EXPECT_GT(counts.writes[1], 0u) << "no short writes";
    EXPECT_GT(counts.writes[2], 0u) << "no long writes";
}

/**
 * The acceptance demonstration: corrupt a Short-file reference count
 * mid-sequence and require the harness to (a) detect it, (b) shrink
 * the counterexample to the minimal op sequence, and (c) emit a seed
 * file that replays to the same failure.
 */
TEST(InjectedBug, ShortRefLeakIsCaughtShrunkAndReplayable)
{
    FuzzConfig config = paperConfig();
    Rng rng(1234);
    FuzzGenOptions options;
    options.ops = 2000;
    FuzzCase fuzz_case{config, generateOps(config, rng, options)};
    // A missed dropRef / spurious addRef, planted mid-stream.
    fuzz_case.ops.insert(fuzz_case.ops.begin() + 1000,
                         FuzzOp{FuzzOpKind::InjectShortRefLeak, 0, 3});

    auto failure = runCase(fuzz_case);
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(failure->opIndex, 1000u);
    EXPECT_EQ(failure->op.kind, FuzzOpKind::InjectShortRefLeak);

    // Shrinking must strip all 2000 benign ops.
    FuzzCase minimal = shrinkCase(fuzz_case);
    ASSERT_EQ(minimal.ops.size(), 1u);
    EXPECT_EQ(minimal.ops[0].kind, FuzzOpKind::InjectShortRefLeak);

    // The emitted seed file replays deterministically to a failure.
    std::string error;
    auto replayed = FuzzCase::parse(minimal.serialize(), &error);
    ASSERT_TRUE(replayed.has_value()) << error;
    auto replay_failure = runCase(*replayed);
    ASSERT_TRUE(replay_failure.has_value());
    EXPECT_EQ(replay_failure->opIndex, 0u);
    EXPECT_NE(replay_failure->message.find("ref"), std::string::npos);
}

/** Shrinking is sound for failures that need supporting context ops. */
TEST(InjectedBug, ShrinkKeepsRequiredContext)
{
    FuzzConfig config = paperConfig();
    FuzzCase fuzz_case;
    fuzz_case.config = config;
    // 100 benign simple writes, then an injected leak on slot 2.
    for (u32 i = 0; i < 100; ++i)
        fuzz_case.ops.push_back(
            {FuzzOpKind::Write, i % config.entries, i});
    fuzz_case.ops.push_back(
        {FuzzOpKind::InjectShortRefLeak, 0, 2});

    FuzzCase minimal = shrinkCase(fuzz_case);
    ASSERT_EQ(minimal.ops.size(), 1u);
    EXPECT_EQ(minimal.ops[0].kind, FuzzOpKind::InjectShortRefLeak);

    // And a non-failing case shrinks to itself, untouched.
    FuzzCase passing;
    passing.config = config;
    passing.ops = {{FuzzOpKind::Write, 0, 42}};
    EXPECT_EQ(shrinkCase(passing).ops.size(), 1u);
}

/** Replay of a failing case is bit-identical run to run. */
TEST(FuzzDeterminism, SameSeedSameOutcome)
{
    FuzzConfig config = paperConfig();
    config.ca.longEntries = 6;
    config.ca.issueStallThreshold = 1;
    FuzzGenOptions options;
    options.ops = 4000;
    options.exhaustionChance = 0.02;
    FuzzRoundResult a = fuzzOneSeed(config, 31337, options);
    FuzzRoundResult b = fuzzOneSeed(config, 31337, options);
    EXPECT_EQ(a.opsRun, b.opsRun);
    EXPECT_EQ(a.failure.has_value(), b.failure.has_value());
}

} // namespace carf::testing
