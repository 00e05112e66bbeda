/**
 * @file
 * Tests for the block path that functional warm-up takes:
 * TraceSource::fill() hands out exactly the records next() would, for
 * the emulator, the replay cursor and the streaming meter, in any mix
 * with next(); and Pipeline::warmUpRange() and sampled runs that pull
 * blocks through FetchStream::fillWarm() equal the same runs pulled
 * one record at a time through wrappers that only implement next().
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "emu/trace_buffer.hh"
#include "emu/trace_cache.hh"
#include "isa/assembler.hh"
#include "sim/reporting.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace carf
{

namespace
{

using emu::DynOp;

constexpr u64 block = emu::MeteredSource::blockRecords;

/** Only next(): takes TraceSource's per-record fill(). */
class NextOnlySource final : public emu::TraceSource
{
  public:
    explicit NextOnlySource(emu::TraceSource &inner) : inner_(&inner) {}
    bool next(DynOp &out) override { return inner_->next(out); }
    std::string name() const override { return inner_->name(); }

  private:
    emu::TraceSource *inner_;
};

/** Only next(): takes FetchStream's per-record fillWarm(). */
class NextOnlyFetch final : public core::FetchStream
{
  public:
    explicit NextOnlyFetch(core::FetchStream &inner) : inner_(&inner) {}
    bool next(core::FetchEntry &out) override { return inner_->next(out); }
    std::string name() const override { return inner_->name(); }

  private:
    core::FetchStream *inner_;
};

auto
fields(const DynOp &op)
{
    return std::tie(op.seq, op.pc, op.op, op.rd, op.rs1, op.rs2,
                    op.rs1Value, op.rs2Value, op.rdValue, op.effAddr,
                    op.taken, op.nextPc);
}

/** A kernel that halts after a few hundred records, inside a block. */
workloads::Workload
haltingKernel()
{
    return {"halting", workloads::Suite::Int, [] {
                using namespace isa;
                Assembler a;
                a.movi(R1, 0);
                a.movi(R2, 150);
                a.movi(R3, 0x1000);
                a.label("loop");
                a.ld(R4, R3, 0);
                a.add(R4, R4, R1);
                a.st(R4, R3, 8);
                a.addi(R3, R3, 8);
                a.addi(R1, R1, 1);
                a.blt(R1, R2, "loop");
                a.halt();
                return a.finish();
            }};
}

std::vector<DynOp>
drain(emu::TraceSource &source)
{
    std::vector<DynOp> ops;
    DynOp op;
    while (source.next(op))
        ops.push_back(op);
    return ops;
}

/**
 * Pull @p source dry, choosing next() or a fill() of a random size
 * (including 0 and the block edges) at every step, and compare each
 * record with @p expect.
 */
void
expectMixedPullsMatch(emu::TraceSource &source,
                      const std::vector<DynOp> &expect, u64 seed,
                      bool fill_only)
{
    const size_t sizes[] = {0,         1,     7,         block - 1,
                            block,     block + 1, 2 * block + 3};
    Rng rng(seed);
    std::vector<DynOp> got;
    std::vector<DynOp> chunk(2 * block + 3);
    for (;;) {
        if (!fill_only && rng.chance(0.5)) {
            DynOp op;
            if (!source.next(op))
                break;
            got.push_back(op);
            continue;
        }
        size_t want = sizes[rng.nextBounded(std::size(sizes))];
        size_t n = source.fill(std::span(chunk).first(want));
        ASSERT_LE(n, want);
        got.insert(got.end(), chunk.begin(), chunk.begin() + n);
        if (n < want)
            break;
    }
    // Dry stays dry, on both paths.
    DynOp op;
    EXPECT_FALSE(source.next(op));
    EXPECT_EQ(source.fill(std::span(chunk).first(5)), 0u);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(fields(got[i]), fields(expect[i])) << "record " << i;
}

std::string
resultJson(const core::RunResult &r)
{
    return sim::runResultJsonFull(r, false);
}

} // namespace

TEST(BlockFill, EqualsDrainingNextAtTheBlockEdges)
{
    const workloads::Workload kernels[] = {
        workloads::findWorkload("hash_table"), haltingKernel()};
    for (const auto &w : kernels) {
        auto whole = workloads::makeTrace(w, ~u64{0});
        auto buffer = emu::TraceBuffer::build(*whole, w.name, 4 * block);
        for (u64 budget : {u64{0}, u64{1}, block - 1, block, block + 1,
                           3 * block + 5}) {
            SCOPED_TRACE(w.name + " @ " + std::to_string(budget));
            auto fresh = workloads::makeTrace(w, budget);
            const std::vector<DynOp> expect = drain(*fresh);
            for (u64 seed = 1; seed <= 3; ++seed) {
                auto emulator = workloads::makeTrace(w, budget);
                expectMixedPullsMatch(*emulator, expect, seed, true);
                emu::TraceBuffer::Cursor cursor(*buffer, budget);
                expectMixedPullsMatch(cursor, expect, seed, true);
                emu::MeteredSource metered(
                    workloads::makeTrace(w, budget));
                expectMixedPullsMatch(metered, expect, seed, true);
            }
        }
    }
}

TEST(BlockFill, MixedNextAndFillOnOneSource)
{
    // next() reads a block ahead in the meter; a fill() must hand that
    // read-ahead out first and then continue from the inner source.
    const workloads::Workload kernels[] = {
        workloads::findWorkload("crc"), haltingKernel()};
    for (const auto &w : kernels) {
        auto whole = workloads::makeTrace(w, ~u64{0});
        auto buffer = emu::TraceBuffer::build(*whole, w.name, 4 * block);
        for (u64 budget : {block - 1, block, block + 1, 3 * block + 5}) {
            SCOPED_TRACE(w.name + " @ " + std::to_string(budget));
            auto fresh = workloads::makeTrace(w, budget);
            const std::vector<DynOp> expect = drain(*fresh);
            for (u64 seed = 1; seed <= 8; ++seed) {
                emu::MeteredSource metered(
                    workloads::makeTrace(w, budget));
                expectMixedPullsMatch(metered, expect, seed, false);
                EXPECT_GT(metered.seconds(), 0.0);
                auto emulator = workloads::makeTrace(w, budget);
                expectMixedPullsMatch(*emulator, expect, seed, false);
                emu::TraceBuffer::Cursor cursor(*buffer, budget);
                expectMixedPullsMatch(cursor, expect, seed, false);
            }
        }
    }
}

TEST(WarmUpBlocks, EqualsPerRecordWarmUpAroundTheBlockSize)
{
    // Gap lengths around warmUpRange's 256-record blocks, the last one
    // past the end of a 1500-record trace; each warm-up is cut into
    // two calls, so the second resumes mid-block.
    const core::CoreParams params = core::CoreParams::contentAware();
    const auto &w = workloads::findWorkload("hash_table");
    constexpr u64 budget = 1500;
    for (u64 len : {u64{1}, u64{255}, u64{256}, u64{257}, u64{511},
                    u64{512}, u64{513}, u64{1000}, u64{1800}}) {
        SCOPED_TRACE("warm-up of " + std::to_string(len));
        emu::MeteredSource source_a(workloads::makeTrace(w, budget));
        core::PredictingFetchStream blocks(source_a, params);
        emu::MeteredSource source_b(workloads::makeTrace(w, budget));
        NextOnlySource records_b(source_b);
        core::PredictingFetchStream predicted_b(records_b, params);
        NextOnlyFetch records(predicted_b);

        core::Pipeline a(params), b(params);
        core::Pipeline::WarmupScratch scratch_a, scratch_b;
        u64 first = len / 3;
        a.warmUpRange(blocks, first, scratch_a);
        a.warmUpRange(blocks, len - first, scratch_a);
        b.warmUpRange(records, first, scratch_b);
        b.warmUpRange(records, len - first, scratch_b);
        EXPECT_EQ(scratch_a.intVals, scratch_b.intVals);
        EXPECT_EQ(scratch_a.intSet, scratch_b.intSet);
        EXPECT_EQ(scratch_a.fpVals, scratch_b.fpVals);
        EXPECT_EQ(scratch_a.fpSet, scratch_b.fpSet);

        // The caches, the Short file's address history and the
        // predictors then time the rest of the trace alike.
        a.installWarmState(scratch_a);
        b.installWarmState(scratch_b);
        core::RunResult ra = a.run(blocks);
        core::RunResult rb = b.run(records);
        EXPECT_EQ(ra.committedInsts, len < budget ? budget - len : 0);
        EXPECT_EQ(resultJson(ra), resultJson(rb));
    }
}

TEST(SampledBlocks, TraceEndsAtOrInsideAGapLikePerRecordRun)
{
    // Period 1000 = gap 800 + warm-up 100 + measure 100. Budgets end
    // the trace exactly at a gap's end (800, 2800: the window is not
    // yet exhausted, and the episode after it finds the trace dry) and
    // start (3000, 5000), inside a gap (3333) and inside an episode's
    // warm-up (3850). Each run's skipped records and measured
    // intervals follow from the loop alone.
    struct Case
    {
        u64 budget;
        u64 skipped;
        u64 intervals;
    };
    const Case cases[] = {{800, 800, 0},    {2800, 2400, 2},
                          {3000, 2400, 3},  {3333, 2733, 3},
                          {3850, 3200, 3},  {5000, 4000, 5}};
    sim::SimOptions options;
    options.samplingPeriod = 1000;
    options.samplingWarmup = 100;
    options.samplingMeasure = 100;
    const core::CoreParams params = core::CoreParams::contentAware();
    emu::TraceCache cache;
    for (const char *name : {"hash_table", "crc"}) {
        const auto &w = workloads::findWorkload(name);
        for (const Case &c : cases) {
            const u64 budget = c.budget;
            SCOPED_TRACE(std::string(name) + " @ " +
                         std::to_string(budget));
            options.maxInsts = budget;
            options.traceCache = nullptr;
            const core::RunResult run = sim::simulate(w, params, options);
            EXPECT_EQ(run.samplingSkippedInsts, c.skipped);
            EXPECT_EQ(run.samplingIntervals, c.intervals);
            const std::string streamed = resultJson(run);
            options.traceCache = &cache;
            EXPECT_EQ(resultJson(sim::simulate(w, params, options)),
                      streamed);

            emu::MeteredSource source(workloads::makeTrace(w, budget));
            NextOnlySource records(source);
            core::PredictingFetchStream predicted(records, params);
            NextOnlyFetch fetch(predicted);
            core::Pipeline pipeline(params);
            core::RunResult r = sim::runSampled(pipeline, fetch, options);
            EXPECT_EQ(resultJson(r), streamed);
        }
    }
}

} // namespace carf
