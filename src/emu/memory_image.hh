/**
 * @file
 * Sparse, page-granular functional memory image.
 *
 * Pages are allocated lazily on first touch and zero-filled, so
 * kernels can use widely separated heap/stack/global regions without
 * cost. This is the *functional* store; timing is modelled separately
 * by the cache hierarchy in src/mem.
 */

#ifndef CARF_EMU_MEMORY_IMAGE_HH
#define CARF_EMU_MEMORY_IMAGE_HH

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace carf::emu
{

/** Lazily allocated paged memory with little-endian scalar access. */
class MemoryImage
{
  public:
    static constexpr unsigned pageShift = 12;
    static constexpr size_t pageSize = size_t{1} << pageShift;

    MemoryImage() = default;
    /** Not copyable: the page cache points into pages_. */
    MemoryImage(const MemoryImage &) = delete;
    MemoryImage &operator=(const MemoryImage &) = delete;
    /** The pages and their cached pointers move; @p other is left
     *  empty. */
    MemoryImage(MemoryImage &&other) noexcept
        : pages_(std::move(other.pages_)), cache_(other.cache_)
    {
        other.pages_.clear();
        other.cache_ = {};
    }

    u8 readU8(Addr addr) const;
    void writeU8(Addr addr, u8 value);

    /** Little-endian multi-byte access; may straddle page boundaries. */
    u64 read(Addr addr, unsigned bytes) const;
    void write(Addr addr, u64 value, unsigned bytes);

    u64 readU64(Addr addr) const { return read(addr, 8); }
    void writeU64(Addr addr, u64 value) { write(addr, value, 8); }
    double readF64(Addr addr) const;
    void writeF64(Addr addr, double value);

    /** Bulk preload used for program data segments. */
    void load(Addr base, const std::vector<u8> &bytes);

    /** Number of distinct pages touched (allocated). */
    size_t pageCount() const { return pages_.size(); }

  private:
    using Page = std::array<u8, pageSize>;

    Page &page(Addr addr);
    const Page *pageIfPresent(Addr addr) const;

    /**
     * Present pages by page number, direct-mapped, consulted before
     * the hash map. Only pages that exist are cached, so a read of an
     * absent page still allocates and caches nothing. Pages are never
     * freed and live behind unique_ptrs, so a cached pointer survives
     * a rehash and a move of the image.
     */
    struct CachedPage
    {
        /** Page number + 1; 0 marks an empty slot. */
        u64 key = 0;
        Page *page = nullptr;
    };
    static constexpr size_t kCachedPages = 64;

    Page *cachedPage(u64 number) const;
    void cachePage(u64 number, Page *page) const;

    std::unordered_map<u64, std::unique_ptr<Page>> pages_;
    mutable std::array<CachedPage, kCachedPages> cache_{};
};

} // namespace carf::emu

#endif // CARF_EMU_MEMORY_IMAGE_HH
