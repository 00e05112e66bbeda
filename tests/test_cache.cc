/**
 * @file
 * Tests for the cache model and the two-level hierarchy.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hh"
#include "mem/hierarchy.hh"

namespace carf::mem
{

namespace
{

CacheParams
tinyCache()
{
    // 4 sets x 2 ways x 64B lines = 512B.
    return {"tiny", 512, 2, 64, 1};
}

/**
 * The set-scanning LRU algorithm Cache implements, with no shortcut:
 * every access scans its set for the tag, then fills the first
 * invalid or the least recently used way.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheParams &p)
        : assoc_(p.assoc), sets_(p.sizeBytes / (p.lineBytes * p.assoc)),
          shift_(__builtin_ctz(p.lineBytes)), lines_(sets_ * assoc_)
    {
    }

    bool
    access(Addr addr)
    {
        ++stamp_;
        u64 tag = addr >> shift_;
        size_t base = (tag & (sets_ - 1)) * assoc_;
        for (unsigned w = 0; w < assoc_; ++w) {
            Line &l = lines_[base + w];
            if (l.valid && l.tag == tag) {
                l.stamp = stamp_;
                ++hits;
                return true;
            }
        }
        unsigned victim = 0;
        u64 oldest = ~u64{0};
        for (unsigned w = 0; w < assoc_; ++w) {
            Line &l = lines_[base + w];
            if (!l.valid) {
                victim = w;
                break;
            }
            if (l.stamp < oldest) {
                oldest = l.stamp;
                victim = w;
            }
        }
        lines_[base + victim] = {true, tag, stamp_};
        ++misses;
        return false;
    }

    bool
    probe(Addr addr) const
    {
        u64 tag = addr >> shift_;
        size_t base = (tag & (sets_ - 1)) * assoc_;
        for (unsigned w = 0; w < assoc_; ++w) {
            const Line &l = lines_[base + w];
            if (l.valid && l.tag == tag)
                return true;
        }
        return false;
    }

    u64 hits = 0;
    u64 misses = 0;

  private:
    struct Line
    {
        bool valid = false;
        u64 tag = 0;
        u64 stamp = 0;
    };
    unsigned assoc_;
    size_t sets_;
    unsigned shift_;
    std::vector<Line> lines_;
    u64 stamp_ = 0;
};

} // namespace

TEST(Cache, ColdMissThenHit)
{
    Cache cache(tinyCache());
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x103f)); // same line
    EXPECT_FALSE(cache.access(0x1040)); // next line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEvictionWithinSet)
{
    Cache cache(tinyCache());
    // Three lines mapping to the same set (stride = sets * line = 256).
    cache.access(0x0000);
    cache.access(0x0100);
    cache.access(0x0000); // refresh LRU of line 0
    cache.access(0x0200); // evicts 0x0100
    EXPECT_TRUE(cache.probe(0x0000));
    EXPECT_FALSE(cache.probe(0x0100));
    EXPECT_TRUE(cache.probe(0x0200));
}

TEST(Cache, ProbeDoesNotMutate)
{
    Cache cache(tinyCache());
    EXPECT_FALSE(cache.probe(0x42));
    EXPECT_EQ(cache.hits() + cache.misses(), 0u);
    EXPECT_FALSE(cache.probe(0x42));
}

TEST(Cache, MissRate)
{
    Cache cache(tinyCache());
    cache.access(0);
    cache.access(0);
    cache.access(0);
    cache.access(64);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.5);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    Cache cache(tinyCache());
    for (Addr addr = 0; addr < 512; addr += 64)
        cache.access(addr);
    for (Addr addr = 0; addr < 512; addr += 64)
        EXPECT_TRUE(cache.probe(addr)) << addr;
}

TEST(Cache, MatchesTheSetScanOnRepetitiveStreams)
{
    // Streams that mostly repeat the last line (the shortcut's case),
    // sometimes touch another byte of it, and otherwise jump among a
    // few more lines than the cache holds, so repeats follow hits,
    // fills and evictions alike.
    const CacheParams geometries[] = {tinyCache(),
                                      {"4way", 2048, 4, 64, 1},
                                      {"direct", 256, 1, 32, 1}};
    for (const CacheParams &p : geometries) {
        for (u64 seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(testing::Message()
                         << p.name << " seed " << seed);
            Cache cache(p);
            ReferenceCache ref(p);
            Rng rng(seed);
            const u64 lines = 3 * p.sizeBytes / p.lineBytes;
            Addr addr = 0;
            for (int i = 0; i < 20000; ++i) {
                if (rng.chance(0.3))
                    addr = rng.nextBounded(lines) * p.lineBytes;
                Addr at = addr + (rng.chance(0.5)
                                      ? rng.nextBounded(p.lineBytes)
                                      : 0);
                ASSERT_EQ(cache.access(at), ref.access(at)) << "access " << i;
                if (i % 97 == 0) {
                    for (u64 l = 0; l < lines; ++l)
                        ASSERT_EQ(cache.probe(l * p.lineBytes),
                                  ref.probe(l * p.lineBytes));
                }
            }
            EXPECT_EQ(cache.hits(), ref.hits);
            EXPECT_EQ(cache.misses(), ref.misses);
            // A copy keeps the shortcut pointing into its own lines.
            Cache copy = cache;
            for (u64 l = 0; l < lines; ++l) {
                Addr a = l * p.lineBytes;
                ASSERT_EQ(copy.access(a), ref.access(a));
                ASSERT_EQ(copy.access(a), ref.access(a));
            }
            EXPECT_EQ(copy.hits(), ref.hits);
        }
    }
}

TEST(CacheDeathTest, BadGeometryIsFatal)
{
    CacheParams p{"bad", 500, 2, 64, 1};
    EXPECT_DEATH(Cache cache(p), "divisible");
}

TEST(Hierarchy, LatenciesCompose)
{
    HierarchyParams params; // Table 1 defaults
    Hierarchy memory(params);
    // Cold: L1 miss + L2 miss + memory.
    EXPECT_EQ(memory.dataAccess(0x8000), 1u + 10u + 100u);
    // Warm L1.
    EXPECT_EQ(memory.dataAccess(0x8000), 1u);
    // A different line in the same L2 after L1 eviction would be
    // 1 + 10; emulate by thrashing L1 with 32KB/4-way conflicts.
    for (Addr addr = 0; addr < 8 * 32 * 1024; addr += 8 * 1024)
        memory.dataAccess(0x100000 + addr);
    Cycle lat = memory.dataAccess(0x8000);
    EXPECT_TRUE(lat == 1 || lat == 11) << lat;
}

TEST(Hierarchy, InstAndDataStreamsAreSplit)
{
    Hierarchy memory;
    memory.instAccess(0x4000);
    // Same address on the data side still misses L1 (split caches)
    // but hits the unified L2.
    EXPECT_EQ(memory.dataAccess(0x4000), 1u + 10u);
}

TEST(Hierarchy, Dl1PortCount)
{
    HierarchyParams params;
    params.dl1Ports = 2;
    Hierarchy memory(params);
    EXPECT_EQ(memory.dl1Ports(), 2u);
}

} // namespace carf::mem
