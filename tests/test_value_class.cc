/**
 * @file
 * Tests for the value taxonomy: similarity parameters, the Short
 * file (allocation, reference bits, reclamation), and classification
 * precedence. Includes property-style sweeps over the d+n range.
 */

#include <gtest/gtest.h>

#include "common/bitutil.hh"
#include "common/random.hh"
#include "regfile/value_class.hh"

namespace carf::regfile
{

TEST(SimilarityParams, DerivedWidths)
{
    SimilarityParams sim{17, 3}; // the paper's d+n = 20
    EXPECT_EQ(sim.simpleFieldBits(), 20u);
    EXPECT_EQ(sim.shortEntryBits(), 44u);
    EXPECT_EQ(sim.shortEntries(), 8u);
}

TEST(SimilarityParams, IndexAndTagFields)
{
    SimilarityParams sim{17, 3};
    u64 value = (u64{0xabcd} << 20) | (u64{5} << 17) | 0x1ffff;
    EXPECT_EQ(sim.shortIndex(value), 5u);
    EXPECT_EQ(sim.shortTag(value), 0xabcdu);
}

TEST(SimilarityParams, SimplePredicateMatchesSignExtension)
{
    SimilarityParams sim{17, 3};
    EXPECT_TRUE(sim.isSimple(0));
    EXPECT_TRUE(sim.isSimple((1ull << 19) - 1));
    EXPECT_FALSE(sim.isSimple(1ull << 19));
    EXPECT_TRUE(sim.isSimple(static_cast<u64>(-1)));
    EXPECT_TRUE(sim.isSimple(static_cast<u64>(-(1ll << 19))));
    EXPECT_FALSE(sim.isSimple(static_cast<u64>(-(1ll << 19) - 1)));
}

TEST(ShortFile, AllocateAndLookup)
{
    SimilarityParams sim{17, 3};
    ShortFile file(sim);
    u64 addr = 0x4000'0000;
    EXPECT_TRUE(file.tryAllocate(addr));
    unsigned idx = 0;
    EXPECT_TRUE(file.lookup(addr, idx));
    EXPECT_EQ(idx, sim.shortIndex(addr));
    // A (64-d)-similar value (same high bits) hits the same entry.
    EXPECT_TRUE(file.lookup(addr + 0x1ffff, idx));
    // A value with different high bits misses.
    EXPECT_FALSE(file.lookup(addr + (1ull << 25), idx));
}

TEST(ShortFile, DirectMappedConflictRejected)
{
    SimilarityParams sim{17, 3};
    ShortFile file(sim);
    u64 a = 0x4000'0000;
    u64 b = a + (1ull << 25); // same index bits, different tag
    ASSERT_EQ(sim.shortIndex(a), sim.shortIndex(b));
    EXPECT_TRUE(file.tryAllocate(a));
    EXPECT_FALSE(file.tryAllocate(b));
    // Idempotent for the resident group.
    EXPECT_TRUE(file.tryAllocate(a));
    EXPECT_EQ(file.allocations(), 1u);
}

TEST(ShortFile, AssociativeModeAvoidsIndexConflicts)
{
    SimilarityParams sim{17, 3};
    ShortFile file(sim, true);
    u64 a = 0x4000'0000;
    u64 b = a + (1ull << 25);
    EXPECT_TRUE(file.tryAllocate(a));
    EXPECT_TRUE(file.tryAllocate(b)); // any free slot
    unsigned ia = 0, ib = 0;
    EXPECT_TRUE(file.lookup(a, ia));
    EXPECT_TRUE(file.lookup(b, ib));
    EXPECT_NE(ia, ib);
}

TEST(ShortFile, AssociativeFillsAllSlots)
{
    SimilarityParams sim{17, 3};
    ShortFile file(sim, true);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_TRUE(file.tryAllocate((u64{i + 1} << 25)));
    EXPECT_FALSE(file.tryAllocate(u64{100} << 25));
    EXPECT_EQ(file.liveEntries(), 8u);
}

TEST(ShortFile, ReclamationNeedsTwoIdleIntervals)
{
    SimilarityParams sim{17, 3};
    ShortFile file(sim);
    u64 addr = 0x4000'0000;
    file.tryAllocate(addr);
    unsigned idx = sim.shortIndex(addr);
    file.touch(idx);

    file.robIntervalTick(); // used this interval -> Told set
    EXPECT_TRUE(file.valid(idx));
    file.robIntervalTick(); // idle, but Told was set -> survives
    EXPECT_TRUE(file.valid(idx));
    file.robIntervalTick(); // idle again -> reclaimed
    EXPECT_FALSE(file.valid(idx));
    EXPECT_EQ(file.reclamations(), 1u);
}

TEST(ShortFile, LiveReferencesBlockReclamation)
{
    SimilarityParams sim{17, 3};
    ShortFile file(sim);
    u64 addr = 0x4000'0000;
    file.tryAllocate(addr);
    unsigned idx = sim.shortIndex(addr);
    file.addRef(idx);
    for (int i = 0; i < 5; ++i)
        file.robIntervalTick();
    EXPECT_TRUE(file.valid(idx));
    file.dropRef(idx);
    file.robIntervalTick(); // ref counted as use last interval
    file.robIntervalTick();
    file.robIntervalTick();
    EXPECT_FALSE(file.valid(idx));
}

TEST(ShortFileDeathTest, DropRefUnderflowPanics)
{
    SimilarityParams sim{17, 3};
    ShortFile file(sim);
    file.tryAllocate(0x4000'0000);
    EXPECT_DEATH(file.dropRef(sim.shortIndex(0x4000'0000)),
                 "zero refs");
}

TEST(Classify, PrecedenceSimpleOverShort)
{
    SimilarityParams sim{17, 3};
    ShortFile file(sim);
    // Resident group covering small values too (tag 0 is the
    // sign-extension group, so allocate value 0's group).
    file.tryAllocate(0x42);
    unsigned idx = 0;
    EXPECT_EQ(classifyValue(0x42, sim, file, idx), ValueType::Simple);
}

TEST(Classify, ShortWhenResident)
{
    SimilarityParams sim{17, 3};
    ShortFile file(sim);
    u64 addr = 0x4000'0000;
    file.tryAllocate(addr);
    unsigned idx = 0;
    EXPECT_EQ(classifyValue(addr + 8, sim, file, idx),
              ValueType::Short);
    EXPECT_EQ(idx, sim.shortIndex(addr));
}

TEST(Classify, LongWhenNeitherSimpleNorResident)
{
    SimilarityParams sim{17, 3};
    ShortFile file(sim);
    unsigned idx = 0;
    EXPECT_EQ(classifyValue(0xdeadbeefcafef00dull, sim, file, idx),
              ValueType::Long);
}

/** The const overload agrees with the indexed one on every class. */
/** ShortFile self-check: clean on normal flows, loud on corruption. */
TEST(ShortFile, CheckInvariantsDetectsLeakedRefs)
{
    SimilarityParams sim{17, 3};
    ShortFile file(sim);
    EXPECT_EQ(file.checkInvariants(), "");
    u64 addr = 0x4000'0000;
    ASSERT_TRUE(file.tryAllocate(addr));
    unsigned idx = 0;
    ASSERT_TRUE(file.lookup(addr, idx));
    file.addRef(idx);
    EXPECT_EQ(file.checkInvariants(), "");
    file.dropRef(idx);
    file.robIntervalTick();
    file.robIntervalTick();
    ASSERT_FALSE(file.valid(idx));
    EXPECT_EQ(file.checkInvariants(), "");

    // A ref added to a reclaimed slot is stale bookkeeping.
    file.addRef(idx);
    EXPECT_NE(file.checkInvariants().find("invalid slot"),
              std::string::npos);
}

/** Property sweep over the paper's d+n range. */
class ClassifyProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ClassifyProperty, SimpleIffFitsSigned)
{
    unsigned dn = GetParam();
    SimilarityParams sim{dn - 3, 3};
    ShortFile file(sim);
    Rng rng(dn);
    for (int i = 0; i < 2000; ++i) {
        u64 v = rng.next() >> rng.nextBounded(64);
        unsigned idx = 0;
        bool is_simple =
            classifyValue(v, sim, file, idx) == ValueType::Simple;
        EXPECT_EQ(is_simple, fitsSigned(v, dn)) << v;
    }
}

TEST_P(ClassifyProperty, ShortValuesShareHighBitsWithGroup)
{
    unsigned dn = GetParam();
    SimilarityParams sim{dn - 3, 3};
    ShortFile file(sim);
    Rng rng(dn * 7);
    // Allocate a few groups.
    std::vector<u64> bases;
    for (int i = 0; i < 4; ++i) {
        u64 base = rng.next() | (1ull << 62); // force non-simple
        if (file.tryAllocate(base))
            bases.push_back(base);
    }
    for (u64 base : bases) {
        for (int i = 0; i < 100; ++i) {
            u64 v = (similarityTag(base, sim.d()) << sim.d()) |
                    rng.nextBounded(1ull << sim.d());
            unsigned idx = 0;
            ValueType type = classifyValue(v, sim, file, idx);
            // Must be short (same 64-d high bits) unless simple.
            if (!sim.isSimple(v)) {
                EXPECT_EQ(type, ValueType::Short);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(DnSweep, ClassifyProperty,
                         ::testing::Values(8u, 12u, 16u, 20u, 24u, 28u,
                                           32u));

/**
 * Regression for the precomputed classification masks: every mask
 * fast path (isSimple/shortIndex/shortTag) must agree with straight
 * bit arithmetic over the fuzzer's magnitude-biased generator, which
 * concentrates draws on the power-of-two and sign-extension
 * boundaries where an off-by-one in the mask derivation would hide.
 */
TEST(SimilarityParams, MaskPathsMatchBitArithmeticOnBiasedValues)
{
    for (unsigned n : {1u, 2u, 3u, 4u, 6u}) {
        for (unsigned dn : {8u, 12u, 16u, 20u, 24u, 28u, 32u}) {
            if (dn <= n)
                continue;
            unsigned d = dn - n;
            SimilarityParams sim(d, n);
            Rng rng(dn * 131 + n);
            for (int i = 0; i < 4000; ++i) {
                u64 v = rng.nextMagnitudeBiased();
                EXPECT_EQ(sim.isSimple(v), fitsSigned(v, dn))
                    << "d=" << d << " n=" << n << " v=" << v;
                EXPECT_EQ(sim.shortIndex(v),
                          static_cast<unsigned>(
                              (v >> d) & ((u64{1} << n) - 1)))
                    << "d=" << d << " n=" << n << " v=" << v;
                EXPECT_EQ(sim.shortTag(v), v >> dn)
                    << "d=" << d << " n=" << n << " v=" << v;
            }
        }
    }
}

/**
 * Full classifyValue over biased values against an independent
 * bit-arithmetic reference (direct-mapped residency check spelled
 * out with shifts, no SimilarityParams helpers involved).
 */
TEST(Classify, MaskedClassificationMatchesBitArithmeticReference)
{
    SimilarityParams sim{17, 3};
    ShortFile file(sim);
    Rng rng(42);
    // Populate a few resident groups with non-simple bases.
    for (int i = 0; i < 6; ++i)
        file.tryAllocate(rng.next() | (1ull << 62));

    for (int i = 0; i < 8000; ++i) {
        u64 v = rng.nextMagnitudeBiased();
        unsigned idx = 0;
        ValueType type = classifyValue(v, sim, file, idx);

        ValueType expect;
        unsigned idx_ref = static_cast<unsigned>((v >> 17) & 0x7);
        if (fitsSigned(v, 20))
            expect = ValueType::Simple;
        else if (file.valid(idx_ref) && file.tag(idx_ref) == v >> 20)
            expect = ValueType::Short;
        else
            expect = ValueType::Long;

        EXPECT_EQ(type, expect) << v;
        if (type == ValueType::Short) {
            EXPECT_EQ(idx, idx_ref) << v;
        }
    }
}

} // namespace carf::regfile
