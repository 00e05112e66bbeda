/**
 * @file
 * Tests for the sparse functional memory image.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.hh"
#include "emu/memory_image.hh"

namespace carf::emu
{

TEST(MemoryImage, ZeroFilledByDefault)
{
    MemoryImage mem;
    EXPECT_EQ(mem.readU64(0), 0u);
    EXPECT_EQ(mem.readU8(0xdead'beef), 0u);
    EXPECT_EQ(mem.pageCount(), 0u);

    // A read from a present page into an absent one returns the
    // present bytes with zero high bytes and allocates nothing.
    constexpr Addr edge = MemoryImage::pageSize;
    mem.write(edge - 2, 0xbbaa, 2);
    ASSERT_EQ(mem.pageCount(), 1u);
    EXPECT_EQ(mem.readU64(edge - 2), 0xbbaau);
    EXPECT_EQ(mem.read(edge - 1, 4), 0xbbu);
    mem.write(edge + 8, ~0ull, 0); // touches no byte
    EXPECT_EQ(mem.pageCount(), 1u);
}

TEST(MemoryImage, ByteRoundTrip)
{
    MemoryImage mem;
    mem.writeU8(100, 0xab);
    EXPECT_EQ(mem.readU8(100), 0xab);
    EXPECT_EQ(mem.readU8(101), 0u);
}

TEST(MemoryImage, LittleEndianLayout)
{
    MemoryImage mem;
    mem.writeU64(0x1000, 0x0807060504030201ull);
    EXPECT_EQ(mem.readU8(0x1000), 0x01);
    EXPECT_EQ(mem.readU8(0x1007), 0x08);
    EXPECT_EQ(mem.read(0x1002, 2), 0x0403u);
}

TEST(MemoryImage, StraddlesPageBoundary)
{
    MemoryImage mem;
    Addr addr = MemoryImage::pageSize - 4;
    mem.writeU64(addr, 0x1122334455667788ull);
    EXPECT_EQ(mem.readU64(addr), 0x1122334455667788ull);
    EXPECT_EQ(mem.pageCount(), 2u);

    // Every width at every offset in the last 8 bytes of a page,
    // including the exact fit at pageSize - width.
    constexpr u64 pattern = 0x8877665544332211ull;
    constexpr Addr edge = 5 * MemoryImage::pageSize;
    for (unsigned width : {1u, 2u, 4u, 8u}) {
        u64 value =
            width == 8 ? pattern : pattern & ((1ull << (8 * width)) - 1);
        for (Addr back = 8; back >= 1; --back) {
            SCOPED_TRACE(testing::Message()
                         << "width " << width << " at pageSize-" << back);
            MemoryImage img;
            Addr at = edge - back;
            img.write(at, value, width);
            EXPECT_EQ(img.read(at, width), value);
            for (unsigned i = 0; i < width; ++i)
                EXPECT_EQ(img.readU8(at + i), (value >> (8 * i)) & 0xff);
            EXPECT_EQ(img.readU8(at - 1), 0u);
            EXPECT_EQ(img.readU8(at + width), 0u);
            EXPECT_EQ(img.pageCount(), width > back ? 2u : 1u);
        }
    }
}

TEST(MemoryImage, PartialWidthWrites)
{
    MemoryImage mem;
    mem.writeU64(0x2000, ~0ull);
    mem.write(0x2000, 0, 4);
    EXPECT_EQ(mem.readU64(0x2000), 0xffffffff00000000ull);
}

TEST(MemoryImage, DoubleRoundTrip)
{
    MemoryImage mem;
    mem.writeF64(0x3000, -2.75);
    EXPECT_DOUBLE_EQ(mem.readF64(0x3000), -2.75);
}

TEST(MemoryImage, BulkLoad)
{
    MemoryImage mem;
    mem.load(0x4000, {1, 2, 3, 4});
    EXPECT_EQ(mem.readU8(0x4000), 1u);
    EXPECT_EQ(mem.readU8(0x4003), 4u);
    EXPECT_EQ(mem.read(0x4000, 4), 0x04030201u);

    // A four-page segment from an unaligned base: byte-exact at both
    // edges, and exactly the spanned pages allocated.
    constexpr Addr base = 0x8ff0;
    std::vector<u8> segment(2 * MemoryImage::pageSize + 0x100);
    for (size_t i = 0; i < segment.size(); ++i)
        segment[i] = static_cast<u8>(i * 7 + 3);
    MemoryImage big;
    big.load(base, segment);
    EXPECT_EQ(big.pageCount(), 4u);
    for (size_t i = 0; i < segment.size(); ++i)
        ASSERT_EQ(big.readU8(base + i), segment[i]) << "byte " << i;
    Addr end = base + segment.size();
    EXPECT_EQ(big.readU8(base - 1), 0u);
    EXPECT_EQ(big.readU8(end), 0u);
    EXPECT_EQ(big.read(base - 2, 4), (u64{segment[1]} << 24) |
                                         (u64{segment[0]} << 16));
    EXPECT_EQ(big.read(end - 1, 4), u64{segment.back()});
    EXPECT_EQ(big.pageCount(), 4u);

    MemoryImage empty;
    empty.load(0x9000, {});
    EXPECT_EQ(empty.pageCount(), 0u);
}

TEST(MemoryImage, SparseDistantRegions)
{
    MemoryImage mem;
    mem.writeU64(0x0000'1000, 1);
    mem.writeU64(0x7fff'ffff'0000ull, 2);
    EXPECT_EQ(mem.pageCount(), 2u);
    EXPECT_EQ(mem.readU64(0x0000'1000), 1u);
    EXPECT_EQ(mem.readU64(0x7fff'ffff'0000ull), 2u);
}

namespace
{

/**
 * A byte-map model of MemoryImage: every byte ever written or loaded,
 * and the pages those bytes fall in.
 */
struct ByteMapModel
{
    std::map<Addr, u8> bytes;
    std::set<u64> pages;

    void
    put(Addr addr, u8 value)
    {
        bytes[addr] = value;
        pages.insert(addr >> MemoryImage::pageShift);
    }

    u64
    read(Addr addr, unsigned width) const
    {
        u64 value = 0;
        for (unsigned i = 0; i < width; ++i) {
            auto it = bytes.find(addr + i);
            if (it != bytes.end())
                value |= u64{it->second} << (8 * i);
        }
        return value;
    }
};

} // namespace

TEST(MemoryImage, MatchesByteMapReference)
{
    // Seeded random writes, loads and reads near page edges, in three
    // regions. The edges at 0 and at the top of the address space
    // make addr + i wrap around.
    constexpr Addr page = MemoryImage::pageSize;
    const Addr regions[] = {0, 0x7fff'ffff'0000ull, Addr{0} - 2 * page};
    Rng rng(15);
    MemoryImage mem;
    ByteMapModel model;
    auto nearEdge = [&] {
        Addr edge = regions[rng.nextBounded(3)] + rng.nextBounded(4) * page;
        return edge + static_cast<Addr>(rng.nextRange(-16, 15));
    };
    for (unsigned op = 0; op < 20000; ++op) {
        Addr addr = nearEdge();
        u64 pick = rng.nextBounded(100);
        if (pick < 40) {
            unsigned width = 1 + static_cast<unsigned>(rng.nextBounded(8));
            u64 value = rng.next();
            mem.write(addr, value, width);
            for (unsigned i = 0; i < width; ++i)
                model.put(addr + i, static_cast<u8>(value >> (8 * i)));
        } else if (pick < 42) {
            size_t len = rng.chance(0.2) ? rng.nextBounded(3 * page)
                                         : rng.nextBounded(64);
            std::vector<u8> segment(len);
            for (auto &b : segment)
                b = static_cast<u8>(rng.next());
            mem.load(addr, segment);
            for (size_t i = 0; i < len; ++i)
                model.put(addr + i, segment[i]);
        } else {
            unsigned width = 1 + static_cast<unsigned>(rng.nextBounded(8));
            ASSERT_EQ(mem.read(addr, width), model.read(addr, width))
                << "op " << op << " read " << width << " at 0x" << std::hex
                << addr;
        }
        ASSERT_EQ(mem.pageCount(), model.pages.size()) << "op " << op;
    }
    for (const auto &[addr, value] : model.bytes)
        ASSERT_EQ(mem.readU8(addr), value) << std::hex << addr;
}

TEST(MemoryImage, PageCacheAliasingAbsentReadsAndStraddles)
{
    // Page numbers 64 apart share one slot of the 64-entry page cache.
    constexpr Addr page = MemoryImage::pageSize;
    constexpr Addr slotStride = 64 * page;
    MemoryImage mem;
    for (u64 k = 0; k < 130; ++k) {
        mem.writeU64(k * slotStride + 8, 1000 + k);
        // The page written before this one was just evicted from the
        // slot; it must still read back through the hash map.
        if (k > 0) {
            ASSERT_EQ(mem.readU64((k - 1) * slotStride + 8), 999 + k);
        }
    }
    ASSERT_EQ(mem.pageCount(), 130u);

    // Absent pages in the same slot read zero, allocate nothing and
    // do not displace a present page's answer.
    for (u64 k = 130; k < 200; ++k) {
        EXPECT_EQ(mem.readU64(k * slotStride + 8), 0u);
        EXPECT_EQ(mem.readU8(k * slotStride), 0u);
        EXPECT_EQ(mem.readU64(129 * slotStride + 8), 1129u);
    }
    EXPECT_EQ(mem.pageCount(), 130u);
    for (u64 k = 0; k < 130; ++k)
        ASSERT_EQ(mem.readU64(k * slotStride + 8), 1000 + k);

    // Straddles between neighbouring slots (63 -> 0 wraps the cache)
    // while both slots hold other pages.
    for (u64 k = 1; k < 5; ++k) {
        Addr at = k * slotStride - 4;
        mem.writeU64(at, 0x1122334455667788ull * k);
        mem.readU64((k + 10) * slotStride + 8);
        mem.readU64((k + 10) * slotStride - page + 8);
        EXPECT_EQ(mem.readU64(at), 0x1122334455667788ull * k);
        EXPECT_EQ(mem.read(at + 2, 4),
                  (0x1122334455667788ull * k >> 16) & 0xffff'ffffull);
    }
    EXPECT_EQ(mem.readU64(slotStride + 8), 1001u);

    // Enough further pages to rehash the map: cached pointers stay
    // valid.
    for (u64 k = 0; k < 4096; ++k)
        mem.writeU8(0x100'0000'0000ull + k * page, static_cast<u8>(k));
    for (u64 k = 0; k < 130; ++k)
        ASSERT_EQ(mem.readU64(k * slotStride + 8), 1000 + k);
    for (u64 k = 0; k < 4096; ++k)
        ASSERT_EQ(mem.readU8(0x100'0000'0000ull + k * page),
                  static_cast<u8>(k));

    // A moved image keeps every page; the source is left empty.
    MemoryImage moved(std::move(mem));
    EXPECT_EQ(moved.readU64(129 * slotStride + 8), 1129u);
    EXPECT_EQ(moved.pageCount(), 130u + 4096u + 4u);
    EXPECT_EQ(mem.pageCount(), 0u); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(mem.readU64(129 * slotStride + 8), 0u);
    EXPECT_EQ(mem.pageCount(), 0u);
}

} // namespace carf::emu
