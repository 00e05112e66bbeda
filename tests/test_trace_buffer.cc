/**
 * @file
 * Tests for the in-memory trace subsystem: TraceBuffer's derived-field
 * encoding and replay cursor, the trace-file round trip, TraceCache's
 * build-once/budget/LRU contracts, and — the load-bearing property —
 * bit-identical simulation results between streaming emulation and
 * cached zero-copy replay, serially and under ExperimentRunner
 * contention (the concurrent tests are exercised by the TSan CI job),
 * including budgets on either side of MeteredSource's block edges.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "emu/trace_buffer.hh"
#include "emu/trace_cache.hh"
#include "emu/trace_file.hh"
#include "isa/assembler.hh"
#include "sim/experiment_runner.hh"
#include "sim/reporting.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace carf::emu
{

namespace
{

/**
 * A deterministic, well-formed program-order stream (dense seq, pc
 * chain) that never touches the emulator; keeps the cache unit tests
 * fast and independent of the workload registry.
 */
class SyntheticSource : public TraceSource
{
  public:
    explicit SyntheticSource(u64 count, u64 seed = 1)
        : count_(count), rng_(seed)
    {
    }

    bool next(DynOp &out) override
    {
        if (made_ >= count_)
            return false;
        out = DynOp{};
        out.seq = made_;
        out.pc = pc_;
        out.op = isa::Opcode::NOP;
        out.rd = static_cast<u8>(rng_.nextBounded(32));
        out.rs1 = static_cast<u8>(rng_.nextBounded(32));
        out.rs2 = static_cast<u8>(rng_.nextBounded(32));
        out.rs1Value = rng_.next();
        out.rs2Value = rng_.next();
        out.rdValue = rng_.next();
        out.effAddr = rng_.next();
        out.taken = rng_.chance(0.3);
        out.nextPc = out.taken ? rng_.nextBounded(1u << 20) : pc_ + 1;
        pc_ = out.nextPc;
        ++made_;
        return true;
    }

    std::string name() const override { return "synthetic"; }

  private:
    u64 count_;
    u64 made_ = 0;
    u64 pc_ = 0;
    Rng rng_;
};

void
expectSameOp(const DynOp &a, const DynOp &b, u64 index)
{
    EXPECT_EQ(a.seq, b.seq) << index;
    EXPECT_EQ(a.pc, b.pc) << index;
    EXPECT_EQ(a.op, b.op) << index;
    EXPECT_EQ(a.rd, b.rd) << index;
    EXPECT_EQ(a.rs1, b.rs1) << index;
    EXPECT_EQ(a.rs2, b.rs2) << index;
    EXPECT_EQ(a.rs1Value, b.rs1Value) << index;
    EXPECT_EQ(a.rs2Value, b.rs2Value) << index;
    EXPECT_EQ(a.rdValue, b.rdValue) << index;
    EXPECT_EQ(a.effAddr, b.effAddr) << index;
    EXPECT_EQ(a.taken, b.taken) << index;
    EXPECT_EQ(a.nextPc, b.nextPc) << index;
}

/** Drain both sources side by side, expecting identical streams. */
void
expectSameStream(TraceSource &a, TraceSource &b)
{
    DynOp op_a, op_b;
    u64 index = 0;
    for (;;) {
        bool more_a = a.next(op_a);
        bool more_b = b.next(op_b);
        ASSERT_EQ(more_a, more_b) << "length mismatch at " << index;
        if (!more_a)
            return;
        expectSameOp(op_a, op_b, index);
        ++index;
    }
}

/**
 * Deterministic slice of a RunResult's JSON: the host-time fields
 * (wall/trace-build/sim seconds) sit together at the object tail, so
 * one cut removes all of them.
 */
std::string
jsonSansTime(const core::RunResult &result)
{
    std::string json = sim::runResultJson(result);
    auto pos = json.find(",\"wall_seconds\":");
    EXPECT_NE(pos, std::string::npos);
    return json.substr(0, pos) + "}";
}

sim::SimOptions
quick(u64 insts = 20000)
{
    sim::SimOptions options;
    options.maxInsts = insts;
    return options;
}

constexpr u64 block = MeteredSource::blockRecords;

/** Budgets on either side of the streaming block edges. */
const std::vector<u64> edgeBudgets = {block - 1, block, block + 1,
                                      3 * block + 5};

/**
 * A kernel that halts after a few hundred instructions, before
 * MeteredSource fills its first block.
 */
workloads::Workload
shortKernel()
{
    return {"short_halt", workloads::Suite::Int, [] {
                using namespace isa;
                Assembler a;
                a.movi(R1, 0);
                a.movi(R2, 120);
                a.movi(R3, 12345);
                a.movi(R4, 40503);
                a.label("loop");
                a.mul(R3, R3, R4);
                a.xor_(R5, R3, R1);
                a.addi(R1, R1, 1);
                a.blt(R1, R2, "loop");
                a.halt();
                return a.finish();
            }};
}

/** hash_table, crc and the short kernel: the block-edge kernels. */
std::vector<workloads::Workload>
edgeKernels()
{
    return {workloads::findWorkload("hash_table"),
            workloads::findWorkload("crc"), shortKernel()};
}

} // namespace

TEST(TraceBuffer, ReplayMatchesFreshEmulationForEveryWorkload)
{
    constexpr u64 insts = 5000;
    for (const auto &w : workloads::allWorkloads()) {
        auto fresh = workloads::makeTrace(w, insts);
        auto again = workloads::makeTrace(w, insts);
        auto buffer = TraceBuffer::build(*again, w.name, insts);
        TraceBuffer::Cursor cursor(*buffer);
        EXPECT_EQ(cursor.name(), w.name);
        expectSameStream(*fresh, cursor);
    }
}

TEST(TraceBuffer, CursorResetReplaysIdenticalStream)
{
    SyntheticSource source(3000, 7);
    auto buffer = TraceBuffer::build(source, "synthetic", 3000);
    ASSERT_EQ(buffer->size(), 3000u);

    std::vector<DynOp> first;
    TraceBuffer::Cursor cursor(*buffer);
    DynOp op;
    while (cursor.next(op))
        first.push_back(op);
    ASSERT_EQ(first.size(), 3000u);

    cursor.reset();
    EXPECT_EQ(cursor.position(), 0u);
    u64 index = 0;
    while (cursor.next(op))
        expectSameOp(op, first[index], index), ++index;
    EXPECT_EQ(index, 3000u);
}

TEST(TraceBuffer, CursorSkipMatchesDrainingTheSamePrefix)
{
    SyntheticSource source(1000, 3);
    auto buffer = TraceBuffer::build(source, "synthetic", 1000);

    TraceBuffer::Cursor skipped(*buffer);
    skipped.skip(400);
    EXPECT_EQ(skipped.position(), 400u);

    TraceBuffer::Cursor drained(*buffer);
    DynOp op;
    for (int i = 0; i < 400; ++i)
        ASSERT_TRUE(drained.next(op));
    expectSameStream(drained, skipped);

    // Skip clamps at the end instead of running past it.
    skipped.skip(~u64{0});
    EXPECT_EQ(skipped.position(), 1000u);
    EXPECT_FALSE(skipped.next(op));
}

TEST(TraceBuffer, CursorBudgetCapsReplayLikeAFreshEmulation)
{
    SyntheticSource source(2000, 9);
    auto buffer = TraceBuffer::build(source, "synthetic", 2000);
    SyntheticSource capped_source(500, 9);
    TraceBuffer::Cursor capped(*buffer, 500);
    expectSameStream(capped_source, capped);
}

TEST(TraceBuffer, SawHaltDistinguishesShortSourceFromFullBudget)
{
    SyntheticSource halting(100, 5);
    auto halted = TraceBuffer::build(halting, "halted", 5000);
    EXPECT_EQ(halted->size(), 100u);
    EXPECT_TRUE(halted->sawHalt());

    SyntheticSource long_source(5000, 5);
    auto full = TraceBuffer::build(long_source, "full", 5000);
    EXPECT_EQ(full->size(), 5000u);
    EXPECT_FALSE(full->sawHalt());
}

TEST(TraceBuffer, EncodingIsSmallerThanTheNaiveDynOpArray)
{
    SyntheticSource source(10000, 11);
    auto buffer = TraceBuffer::build(source, "synthetic", 10000);
    auto sizes = buffer->fieldSizes();
    EXPECT_GT(sizes.total(), 0u);
    // ~41 B/record vs the 64+ B DynOp: demand at least a 1.5x win.
    EXPECT_LT(sizes.total() * 3, buffer->size() * sizeof(DynOp) * 2);
    EXPECT_GE(buffer->memoryBytes(), sizes.total());
}

TEST(MeteredSource, MatchesFreshEmulationAcrossBlockEdges)
{
    // The short kernel must really halt inside the first block.
    auto whole = workloads::makeTrace(shortKernel(), ~u64{0});
    DynOp op;
    u64 count = 0;
    while (whole->next(op))
        ++count;
    EXPECT_GT(count, 100u);
    EXPECT_LT(count, block);

    for (const auto &w : edgeKernels()) {
        for (u64 budget : edgeBudgets) {
            SCOPED_TRACE(w.name + " @ " + std::to_string(budget));
            MeteredSource metered(workloads::makeTrace(w, budget));
            auto fresh = workloads::makeTrace(w, budget);
            expectSameStream(metered, *fresh);
            EXPECT_GT(metered.seconds(), 0.0);
        }
    }
}

TEST(TraceFile, BufferRoundTripsThroughATraceFile)
{
    SyntheticSource source(2500, 13);
    auto buffer = TraceBuffer::build(source, "roundtrip", 2500);

    std::string path = ::testing::TempDir() + "carf_roundtrip.trace";
    EXPECT_EQ(TraceWriter::record(*buffer, path), 2500u);
    auto loaded = readTraceBuffer(path, "roundtrip");
    ASSERT_EQ(loaded->size(), buffer->size());
    EXPECT_EQ(loaded->baseSeq(), buffer->baseSeq());

    TraceBuffer::Cursor a(*buffer), b(*loaded);
    expectSameStream(a, b);
    std::remove(path.c_str());
}

TEST(TraceCache, BuildsOnceThenServesHits)
{
    TraceCache cache;
    auto builder = [] {
        return std::make_unique<SyntheticSource>(2000, 21);
    };
    auto first = cache.acquire("w", 2000, builder);
    ASSERT_TRUE(first);
    auto second = cache.acquire("w", 2000, builder);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.buildCount("w"), 1u);

    auto stats = cache.stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytesCached, 0u);
}

TEST(TraceCache, PrefixPropertyServesSmallerBudgets)
{
    TraceCache cache;
    auto builder = [] {
        return std::make_unique<SyntheticSource>(100000, 23);
    };
    auto big = cache.acquire("w", 10000, builder);
    ASSERT_TRUE(big);
    EXPECT_EQ(big->size(), 10000u);

    // A smaller request is a hit on the existing buffer...
    auto small = cache.acquire("w", 4000, builder);
    EXPECT_EQ(small.get(), big.get());
    EXPECT_EQ(cache.buildCount("w"), 1u);

    // ...while a larger one rebuilds and replaces it.
    auto bigger = cache.acquire("w", 20000, builder);
    ASSERT_TRUE(bigger);
    EXPECT_EQ(bigger->size(), 20000u);
    EXPECT_EQ(cache.buildCount("w"), 2u);
    EXPECT_EQ(cache.stats().entries, 1u);

    // The replacement is a superset prefix of the original stream.
    TraceBuffer::Cursor old_prefix(*big);
    TraceBuffer::Cursor new_prefix(*bigger, big->size());
    expectSameStream(old_prefix, new_prefix);
}

TEST(TraceCache, HaltedTraceServesAnyBudget)
{
    TraceCache cache;
    auto builder = [] {
        return std::make_unique<SyntheticSource>(500, 25);
    };
    auto buffer = cache.acquire("w", 5000, builder);
    ASSERT_TRUE(buffer);
    EXPECT_EQ(buffer->size(), 500u);
    EXPECT_TRUE(buffer->sawHalt());

    // Even a budget the estimator would refuse to build is a hit: the
    // program halted, so the buffer is the whole trace.
    auto huge = cache.acquire("w", ~u64{0} >> 8, builder);
    EXPECT_EQ(huge.get(), buffer.get());
    EXPECT_EQ(cache.buildCount("w"), 1u);
}

TEST(TraceCache, OversizeRequestFallsBackWithoutBuilding)
{
    TraceCache cache(64 << 10); // 64 KiB: ~1.6k records at most
    bool built = false;
    auto builder = [&built] {
        built = true;
        return std::make_unique<SyntheticSource>(1000000, 27);
    };
    EXPECT_FALSE(cache.acquire("w", 1000000, builder));
    EXPECT_FALSE(built); // refused by the up-front estimate
    EXPECT_FALSE(cache.acquire("w", 1000000, builder));
    EXPECT_EQ(cache.buildCount("w"), 0u);
    EXPECT_EQ(cache.stats().fallbacks, 2u);

    // A small request for the same workload still caches normally.
    auto small = cache.acquire("w", 1000, builder);
    ASSERT_TRUE(small);
    EXPECT_TRUE(built);
    EXPECT_EQ(small->size(), 1000u);
}

TEST(TraceCache, LruEvictionKeepsResidencyUnderTheByteBudget)
{
    // Budget fits one ~4k-record trace (~170 KiB) but not two.
    TraceCache cache(300 << 10);
    auto builder = [](u64 seed) {
        return [seed] {
            return std::make_unique<SyntheticSource>(4096, seed);
        };
    };
    ASSERT_TRUE(cache.acquire("a", 4096, builder(1)));
    ASSERT_TRUE(cache.acquire("b", 4096, builder(2)));

    auto stats = cache.stats();
    EXPECT_GE(stats.evictions, 1u);
    EXPECT_LE(stats.bytesCached, cache.byteBudget());
    EXPECT_EQ(stats.entries, 1u);

    // "a" was the LRU victim; reacquiring it is a rebuild, and the
    // build counter survives the eviction.
    ASSERT_TRUE(cache.acquire("a", 4096, builder(1)));
    EXPECT_EQ(cache.buildCount("a"), 2u);
    EXPECT_EQ(cache.buildCount("b"), 1u);
}

TEST(SimulateWithCache, BitIdenticalToStreamingForEveryWorkload)
{
    TraceCache cache;
    auto params = core::CoreParams::contentAware(20);
    auto streaming_options = quick();
    auto cached_options = quick();
    cached_options.traceCache = &cache;

    for (const auto &w : workloads::allWorkloads()) {
        auto streamed = sim::simulate(w, params, streaming_options);
        auto cached = sim::simulate(w, params, cached_options);
        // First cached run builds the trace, second replays the hit;
        // both must match streaming emulation byte-for-byte through
        // the reporting path.
        auto replayed = sim::simulate(w, params, cached_options);
        EXPECT_EQ(jsonSansTime(streamed), jsonSansTime(cached))
            << w.name;
        EXPECT_EQ(jsonSansTime(streamed), jsonSansTime(replayed))
            << w.name;
        EXPECT_EQ(cache.buildCount(w.name), 1u) << w.name;
        EXPECT_EQ(streamed.wallSeconds,
                  streamed.traceBuildSeconds + streamed.simSeconds);
        // Streaming meters the emulator at the source, so its
        // interleaved build cost shows up split out of simSeconds.
        EXPECT_GT(streamed.traceBuildSeconds, 0.0);
        EXPECT_GT(streamed.simSeconds, 0.0);
        EXPECT_EQ(cached.wallSeconds,
                  cached.traceBuildSeconds + cached.simSeconds);
    }
}

TEST(SimulateWithCache, FastForwardIsBitIdenticalToStreaming)
{
    TraceCache cache;
    auto params = core::CoreParams::contentAware(20);
    sim::SimOptions options = quick(12000);
    options.fastForward = 6000;

    for (const char *name : {"counters", "hash_table", "crc"}) {
        const auto &w = workloads::findWorkload(name);
        auto streamed = sim::simulate(w, params, options);
        auto cached_options = options;
        cached_options.traceCache = &cache;
        auto cached = sim::simulate(w, params, cached_options);
        EXPECT_EQ(jsonSansTime(streamed), jsonSansTime(cached)) << name;
    }

    // A warm-up that ends just past a block edge: the timed run picks
    // up the rest of that block, then the following fills.
    TraceCache edge_cache;
    sim::SimOptions edge = quick(2 * block + 3);
    edge.fastForward = block + 17;
    const auto &w = workloads::findWorkload("hash_table");
    auto streamed = sim::simulate(w, params, edge);
    edge.traceCache = &edge_cache;
    auto cached = sim::simulate(w, params, edge);
    EXPECT_EQ(edge_cache.buildCount(w.name), 1u);
    EXPECT_EQ(jsonSansTime(streamed), jsonSansTime(cached));
}

TEST(SimulateWithCache, BitIdenticalToStreamingAcrossBlockEdges)
{
    auto params = core::CoreParams::contentAware(20);
    for (const auto &w : edgeKernels()) {
        for (u64 budget : edgeBudgets) {
            TraceCache cache;
            auto options = quick(budget);
            auto cached_options = options;
            cached_options.traceCache = &cache;
            auto streamed = sim::simulate(w, params, options);
            auto cached = sim::simulate(w, params, cached_options);
            EXPECT_EQ(cache.buildCount(w.name), 1u);
            EXPECT_EQ(jsonSansTime(streamed), jsonSansTime(cached))
                << w.name << " @ " << budget;
        }
    }
}

TEST(SimulateWithCache, StreamingSplitsHostTimeOnEveryEntryPoint)
{
    // simulate() is covered above; the SMT (T=2) and sampled entry
    // points share the same acquire helper and timing tail.
    const auto &w = workloads::findWorkload("hash_table");
    auto smt_params = core::CoreParams::contentAware(20);
    smt_params.smtThreads = 2;
    auto smt_options = quick();
    smt_options.smtMix = {"crc"};
    auto smt = sim::simulateSmt(w, smt_params, smt_options);

    auto sampled_options = quick(30000);
    sampled_options.samplingPeriod = 10000;
    auto sampled = sim::simulateSampled(
        w, core::CoreParams::contentAware(20), sampled_options);

    for (const auto *r : {&smt, &sampled}) {
        EXPECT_GT(r->traceBuildSeconds, 0.0);
        EXPECT_GT(r->simSeconds, 0.0);
        EXPECT_EQ(r->wallSeconds, r->traceBuildSeconds + r->simSeconds);
    }
}

TEST(SimulateWithCache, FallbackToStreamingIsTransparent)
{
    // A budget far too small for any real trace: every acquire falls
    // back, and simulate() must stream with identical results.
    TraceCache cache(1 << 10);
    auto params = core::CoreParams::baseline();
    auto options = quick(8000);
    const auto &w = workloads::findWorkload("counters");

    auto streamed = sim::simulate(w, params, options);
    auto fallback_options = options;
    fallback_options.traceCache = &cache;
    auto fallen_back = sim::simulate(w, params, fallback_options);

    EXPECT_EQ(jsonSansTime(streamed), jsonSansTime(fallen_back));
    EXPECT_EQ(cache.buildCount(w.name), 0u);
    EXPECT_GE(cache.stats().fallbacks, 1u);
    // The fallback streams, and streaming meters the emulator's
    // interleaved cost as trace-build time.
    EXPECT_GT(fallen_back.traceBuildSeconds, 0.0);
    EXPECT_EQ(fallen_back.wallSeconds,
              fallen_back.traceBuildSeconds + fallen_back.simSeconds);
}

TEST(SimulateWithCache, ConcurrentSweepEmulatesEachWorkloadOnce)
{
    // A 4-configuration sweep over a few workloads, all jobs sharing
    // one cache under an 8-worker pool: every workload must be
    // emulated exactly once (build-once contract under contention),
    // and every result must match the serial uncached reference.
    TraceCache cache;
    std::vector<workloads::Workload> mini = {
        workloads::findWorkload("counters"),
        workloads::findWorkload("hash_table"),
        workloads::findWorkload("crc"),
    };
    std::vector<core::CoreParams> configs = {
        core::CoreParams::baseline(),
        core::CoreParams::contentAware(16),
        core::CoreParams::contentAware(20),
        core::CoreParams::contentAware(24),
    };

    auto cached_options = quick();
    cached_options.traceCache = &cache;
    std::vector<sim::ExperimentJob> jobs;
    for (const auto &params : configs) {
        for (const auto &w : mini)
            jobs.push_back({w, params, cached_options, "sweep", nullptr});
    }

    auto results = sim::ExperimentRunner(8).run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        auto reference =
            sim::simulate(jobs[i].workload, jobs[i].params, quick());
        EXPECT_EQ(jsonSansTime(reference), jsonSansTime(results[i]))
            << i;
    }
    for (const auto &w : mini)
        EXPECT_EQ(cache.buildCount(w.name), 1u) << w.name;

    auto stats = cache.stats();
    EXPECT_EQ(stats.builds, mini.size());
    EXPECT_EQ(stats.hits, jobs.size() - mini.size());
    EXPECT_EQ(stats.fallbacks, 0u);
}

} // namespace carf::emu
