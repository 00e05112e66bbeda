/**
 * @file
 * Tests for the in-memory trace subsystem: TraceBuffer's derived and
 * predicted-field encoding (emulator streams store no derivable
 * field; predictor aliasing replays exactly; underivable records panic)
 * and replay cursor, the byte budget that stops a build, TraceCache's
 * build-once/budget/LRU contracts, and — the load-bearing property —
 * bit-identical simulation results between streaming emulation and
 * cached zero-copy replay, serially and under ExperimentRunner
 * contention (the concurrent tests are exercised by the TSan CI job),
 * including budgets on either side of MeteredSource's block edges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "emu/trace_buffer.hh"
#include "emu/trace_cache.hh"
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
 * fast and independent of the workload registry. Every record is a
 * load whose base register holds what program order put there, with a
 * random address and result, so the encoding stores most of it.
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
        out.op = isa::Opcode::LD;
        out.rd = static_cast<u8>(rng_.nextBounded(32));
        out.rs1 = static_cast<u8>(rng_.nextBounded(32));
        // LD reads no rs2, so its rs2Value is 0 whatever rs2 says.
        out.rs2 = static_cast<u8>(rng_.nextBounded(32));
        out.rs1Value = regs_[out.rs1];
        out.effAddr = rng_.next();
        // x0 discards its result.
        out.rdValue = out.rd != 0 ? rng_.next() : 0;
        regs_[out.rd] = out.rdValue;
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
    std::array<u64, 32> regs_{};
    Rng rng_;
};

/** Replays a fixed record vector. */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(const std::vector<DynOp> &ops) : ops_(&ops) {}

    bool next(DynOp &out) override
    {
        if (pos_ >= ops_->size())
            return false;
        out = (*ops_)[pos_++];
        return true;
    }

    std::string name() const override { return "vector"; }

  private:
    const std::vector<DynOp> *ops_;
    size_t pos_ = 0;
};

/** Pass records through, counting how many were pulled. */
class CountingSource : public TraceSource
{
  public:
    CountingSource(std::unique_ptr<TraceSource> inner, u64 &pulled)
        : inner_(std::move(inner)), pulled_(&pulled)
    {
    }

    bool next(DynOp &out) override
    {
        bool more = inner_->next(out);
        *pulled_ += more;
        return more;
    }

    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<TraceSource> inner_;
    u64 *pulled_;
};

/** Every record of @p source, in order. */
std::vector<DynOp>
drainAll(TraceSource &source)
{
    std::vector<DynOp> ops;
    DynOp op;
    while (source.next(op))
        ops.push_back(op);
    return ops;
}

/** The first @p insts records of workload @p name. */
std::vector<DynOp>
emulated(const std::string &name, u64 insts)
{
    auto trace = workloads::makeTrace(workloads::findWorkload(name), insts);
    return drainAll(*trace);
}

/** Build every registered workload's trace at @p insts into @p fn. */
template <typename Fn>
void
forEachEmulatedTrace(u64 insts, Fn fn)
{
    for (const auto &w : workloads::allWorkloads()) {
        auto trace = workloads::makeTrace(w, insts);
        auto buffer = TraceBuffer::build(*trace, w.name, insts);
        fn(w.name, *buffer);
    }
}

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

/** All fields equal; for checks off the test thread. */
bool
sameOp(const DynOp &a, const DynOp &b)
{
    auto fields = [](const DynOp &o) {
        return std::tie(o.seq, o.pc, o.op, o.rd, o.rs1, o.rs2, o.rs1Value,
                        o.rs2Value, o.rdValue, o.effAddr, o.taken,
                        o.nextPc);
    };
    return fields(a) == fields(b);
}

/**
 * Expect @p cursor to yield @p ops[from..] (at most @p count records),
 * stopping at the first mismatching record.
 */
void
expectReplays(TraceSource &cursor, const std::vector<DynOp> &ops, u64 from,
              u64 count = ~u64{0})
{
    DynOp op;
    u64 end = count < ops.size() - from ? from + count : ops.size();
    for (u64 i = from; i < end; ++i) {
        ASSERT_TRUE(cursor.next(op)) << "ended early at " << i;
        expectSameOp(op, ops[i], i);
        if (::testing::Test::HasFailure())
            return;
    }
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

/** Deterministic record of a run: every field but the host times. */
std::string
jsonSansTime(const core::RunResult &result)
{
    return sim::runResultJsonFull(result, false);
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
    // SyntheticSource's random addresses and results are stored, and
    // so are most decodes (~22 B/record) vs the 72 B DynOp: demand at
    // least a 1.5x win even so.
    EXPECT_LT(sizes.total() * 3, buffer->size() * sizeof(DynOp) * 2);
    EXPECT_GE(buffer->memoryBytes(), sizes.total());
}

TEST(TraceBuffer, EmulatedTracesStoreOnlyUnderivedFields)
{
    // At 100k records the programs whose static instructions fit the
    // predictor take 1.0-7.0 B/record; fetch_wall, whose 12k static
    // instructions alias in it, takes 12.8.
    u64 bytes = 0;
    u64 records = 0;
    forEachEmulatedTrace(100000, [&](const std::string &name,
                                     const TraceBuffer &buffer) {
        std::set<u64> pcs;
        TraceBuffer::Cursor cursor(buffer);
        DynOp op;
        while (cursor.next(op))
            pcs.insert(op.pc);
        u64 bound = pcs.size() <= TraceBuffer::kPredictorEntries ? 8 : 14;
        EXPECT_LE(buffer.fieldSizes().total(), bound * buffer.size())
            << name << " (" << pcs.size() << " static pcs)";
        bytes += buffer.fieldSizes().total();
        records += buffer.size();
    });
    // 5.0 B/record over the suite.
    EXPECT_LE(bytes, 5.5 * records);
}

TEST(TraceBuffer, PredictorAliasingReplaysExactly)
{
    // fetch_wall runs more static instructions than the predictor has
    // entries, so each entry is taken over before its pc comes back.
    auto ops = emulated("fetch_wall", 30000);
    std::set<u64> pcs;
    for (const DynOp &op : ops)
        pcs.insert(op.pc);
    EXPECT_GT(pcs.size(), TraceBuffer::kPredictorEntries);
    VectorSource source(ops);
    auto buffer = TraceBuffer::build(source, "fetch_wall", ops.size());
    EXPECT_LT(buffer->predictionStats().decode.hits, ops.size() / 2);
    TraceBuffer::Cursor cursor(*buffer);
    expectReplays(cursor, ops, 0);
    DynOp past_end;
    EXPECT_FALSE(cursor.next(past_end));

    // Two pcs alternate by taken jumps. One table size apart, every
    // record finds the other's entry and restarts it cold.
    auto alternating = [](u64 other_pc) {
        std::vector<DynOp> ops;
        u64 x = 0;
        for (u64 i = 0; i < 2000; ++i) {
            DynOp op;
            op.seq = i;
            op.pc = i % 2 ? other_pc : 100;
            op.op = isa::Opcode::ADDI;
            op.rd = 1;
            op.rs1 = 1;
            op.rs1Value = x;
            op.rdValue = x += 3 + i % 5;
            op.taken = true;
            op.nextPc = i % 2 ? 100 : other_pc;
            ops.push_back(op);
        }
        return ops;
    };
    for (u64 other : {u64{101}, 100 + TraceBuffer::kPredictorEntries}) {
        SCOPED_TRACE(other);
        auto ping = alternating(other);
        VectorSource ping_source(ping);
        auto pinged = TraceBuffer::build(ping_source, "ping", ping.size());
        const auto &stats = pinged->predictionStats();
        if (other == 101) {
            EXPECT_EQ(stats.decode.hits, ping.size() - 2);
            EXPECT_EQ(stats.target.hits, ping.size() - 2);
        } else {
            EXPECT_EQ(stats.decode.hits, 0u);
            EXPECT_EQ(stats.target.hits, 0u);
        }
        TraceBuffer::Cursor ping_cursor(*pinged);
        expectReplays(ping_cursor, ping, 0);
    }
}

TEST(TraceBuffer, ConcurrentCursorsReplayExactly)
{
    // Cursors on four threads share one buffer, each checking the
    // records from its own positions on; each carries its own
    // predictor.
    auto ops = emulated("fetch_wall", 20000);
    VectorSource source(ops);
    auto buffer = TraceBuffer::build(source, "fetch_wall", ops.size());
    std::atomic<u64> mismatches{0};
    std::atomic<u64> replayed{0};
    std::vector<std::thread> threads;
    for (u64 t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (u64 round = 0; round < 3; ++round) {
                u64 at = (t * 3 + round) * 1500;
                TraceBuffer::Cursor cursor(*buffer);
                DynOp op;
                for (u64 i = 0; cursor.next(op); ++i) {
                    mismatches += i >= ops.size() || !sameOp(op, ops[i]);
                    replayed += i >= at;
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(mismatches.load(), 0u);
    u64 expected = 0;
    for (u64 at = 0; at < 12; ++at)
        expected += ops.size() - at * 1500;
    EXPECT_EQ(replayed.load(), expected);
}

TEST(TraceBufferDeathTest, UnderivableRecordPanics)
{
    // A source value that is not its register's content cannot come
    // from the emulator, and a cursor could not derive it.
    auto ops = emulated("hash_table", 2000);
    auto reads_rs1 = [](const DynOp &o) {
        return o.info().rs1Class == isa::RegClass::Int;
    };
    auto it = std::find_if(ops.begin() + 100, ops.end(), reads_rs1);
    ASSERT_NE(it, ops.end());
    it->rs1Value ^= 1;
    EXPECT_DEATH(
        {
            VectorSource source(ops);
            TraceBuffer::build(source, "perturbed", ops.size());
        },
        "record .* has a source value, result, effAddr or nextPc that "
        "program order does not give");
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

    // Even a budget no build could fit is a hit: the program halted,
    // so the buffer is the whole trace.
    auto huge = cache.acquire("w", ~u64{0} >> 8, builder);
    EXPECT_EQ(huge.get(), buffer.get());
    EXPECT_EQ(cache.buildCount("w"), 1u);
}

TEST(TraceCache, OversizeRequestFallsBackWithoutBuilding)
{
    TraceCache cache(64 << 10); // 64 KiB: ~3k records at most
    int started = 0;
    auto builder = [&started] {
        ++started;
        return std::make_unique<SyntheticSource>(1000000, 27);
    };
    // The first request starts a build that stops at the budget and
    // keeps nothing; a repeat does not start another.
    EXPECT_FALSE(cache.acquire("w", 1000000, builder));
    EXPECT_EQ(started, 1);
    EXPECT_FALSE(cache.acquire("w", 1000000, builder));
    EXPECT_EQ(started, 1);
    EXPECT_EQ(cache.buildCount("w"), 0u);
    EXPECT_EQ(cache.stats().fallbacks, 2u);
    EXPECT_EQ(cache.stats().bytesCached, 0u);

    // A small request for the same workload still caches normally.
    auto small = cache.acquire("w", 1000, builder);
    ASSERT_TRUE(small);
    EXPECT_EQ(started, 2);
    EXPECT_EQ(small->size(), 1000u);
}

TEST(TraceCache, TraceThatFitsTheBudgetIsBuilt)
{
    auto ops = emulated("hash_table", 20000);
    VectorSource unbounded(ops);
    u64 bytes =
        TraceBuffer::build(unbounded, "w", ops.size())->memoryBytes();

    // A budget of exactly the trace's bytes fits; one byte less does
    // not, even though the last check comes after the last full block.
    VectorSource exact(ops);
    auto fits = TraceBuffer::build(exact, "w", ops.size(), bytes);
    ASSERT_TRUE(fits);
    EXPECT_EQ(fits->memoryBytes(), bytes);
    TraceBuffer::Cursor cursor(*fits);
    expectReplays(cursor, ops, 0);
    VectorSource short_of(ops);
    EXPECT_FALSE(TraceBuffer::build(short_of, "w", ops.size(), bytes - 1));

    TraceCache cache(bytes);
    auto cached = cache.acquire("w", ops.size(), [&ops] {
        return std::make_unique<VectorSource>(ops);
    });
    ASSERT_TRUE(cached);
    EXPECT_EQ(cache.buildCount("w"), 1u);
    EXPECT_EQ(cache.stats().bytesCached, bytes);
    EXPECT_EQ(cache.stats().fallbacks, 0u);
}

TEST(TraceCache, OverBudgetBuildStopsWithinOneBlock)
{
    constexpr u64 insts = 200000;
    constexpr u64 budget = 64 << 10;
    const auto &w = workloads::findWorkload("hash_table");
    u64 pulled = 0;
    TraceCache cache(budget);
    EXPECT_FALSE(cache.acquire(w.name, insts, [&] {
        return std::make_unique<CountingSource>(
            workloads::makeTrace(w, insts), pulled);
    }));
    auto stats = cache.stats();
    EXPECT_EQ(stats.fallbacks, 1u);
    EXPECT_EQ(stats.builds, 0u);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytesCached, 0u);

    // The build stopped at the first block edge past the budget: the
    // trace one block earlier still fit, the one it stopped at did not.
    auto bytes_of_prefix = [&w](u64 records) {
        auto trace = workloads::makeTrace(w, records);
        return TraceBuffer::build(*trace, w.name, records)->memoryBytes();
    };
    ASSERT_GE(pulled, block);
    EXPECT_LT(pulled, insts);
    EXPECT_EQ(pulled % block, 0u);
    EXPECT_LE(bytes_of_prefix(pulled - block), budget);
    EXPECT_GT(bytes_of_prefix(pulled), budget);
}

TEST(TraceCache, LruEvictionKeepsResidencyUnderTheByteBudget)
{
    // Budget fits one ~4k-record trace but not two.
    auto builder = [](u64 seed) {
        return [seed] {
            return std::make_unique<SyntheticSource>(4096, seed);
        };
    };
    u64 one = TraceBuffer::build(*builder(1)(), "a", 4096)->memoryBytes();
    TraceCache cache(one * 3 / 2);
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
    // The solo run is covered above; SMT (T=2) and sampled runs
    // share the same acquire helper and timing tail.
    const auto &w = workloads::findWorkload("hash_table");
    auto smt_params = core::CoreParams::contentAware(20);
    smt_params.smtThreads = 2;
    auto smt_options = quick();
    smt_options.smtMix = {"crc"};
    auto smt = sim::simulate(w, smt_params, smt_options);

    auto sampled_options = quick(30000);
    sampled_options.samplingPeriod = 10000;
    auto sampled =
        sim::simulate(w, core::CoreParams::contentAware(20), sampled_options);

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
    ::testing::internal::CaptureStderr();
    auto fallen_back = sim::simulate(w, params, fallback_options);
    std::string log = ::testing::internal::GetCapturedStderr();
    // The budget is printed in bytes, not rounded down to "0 MiB".
    EXPECT_NE(log.find("trace 'counters' (8000 insts) passed the 1024 B "
                       "budget while building; falling back to streaming "
                       "emulation"),
              std::string::npos)
        << log;

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
