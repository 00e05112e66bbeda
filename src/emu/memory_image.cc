#include "emu/memory_image.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace carf::emu
{

namespace
{

/** True when [addr, addr + bytes) lies inside one page. */
bool
fitsInPage(Addr addr, unsigned bytes)
{
    return (addr & (MemoryImage::pageSize - 1)) + bytes <=
           MemoryImage::pageSize;
}

} // namespace

inline MemoryImage::Page *
MemoryImage::cachedPage(u64 number) const
{
    const CachedPage &slot = cache_[number % kCachedPages];
    return slot.key == number + 1 ? slot.page : nullptr;
}

inline void
MemoryImage::cachePage(u64 number, Page *page) const
{
    cache_[number % kCachedPages] = {number + 1, page};
}

MemoryImage::Page &
MemoryImage::page(Addr addr)
{
    u64 number = addr >> pageShift;
    if (Page *p = cachedPage(number))
        return *p;
    auto it = pages_.find(number);
    if (it == pages_.end())
        it = pages_.emplace(number, std::make_unique<Page>()).first;
    cachePage(number, it->second.get());
    return *it->second;
}

const MemoryImage::Page *
MemoryImage::pageIfPresent(Addr addr) const
{
    u64 number = addr >> pageShift;
    if (const Page *p = cachedPage(number))
        return p;
    auto it = pages_.find(number);
    if (it == pages_.end())
        return nullptr;
    cachePage(number, it->second.get());
    return it->second.get();
}

u8
MemoryImage::readU8(Addr addr) const
{
    const Page *p = pageIfPresent(addr);
    if (!p)
        return 0;
    return (*p)[addr & (pageSize - 1)];
}

void
MemoryImage::writeU8(Addr addr, u8 value)
{
    page(addr)[addr & (pageSize - 1)] = value;
}

u64
MemoryImage::read(Addr addr, unsigned bytes) const
{
    u64 value = 0;
    if (fitsInPage(addr, bytes)) {
        // One lookup for the whole access; an absent page reads zero.
        if (const Page *p = pageIfPresent(addr)) {
            const u8 *src = p->data() + (addr & (pageSize - 1));
            if constexpr (std::endian::native == std::endian::little) {
                std::memcpy(&value, src, bytes);
            } else {
                for (unsigned i = 0; i < bytes; ++i)
                    value |= static_cast<u64>(src[i]) << (8 * i);
            }
        }
        return value;
    }
    for (unsigned i = 0; i < bytes; ++i)
        value |= static_cast<u64>(readU8(addr + i)) << (8 * i);
    return value;
}

void
MemoryImage::write(Addr addr, u64 value, unsigned bytes)
{
    if (bytes == 0)
        return; // touches no byte, so allocates no page
    if (fitsInPage(addr, bytes)) {
        u8 *dst = page(addr).data() + (addr & (pageSize - 1));
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(dst, &value, bytes);
        } else {
            for (unsigned i = 0; i < bytes; ++i)
                dst[i] = static_cast<u8>(value >> (8 * i));
        }
        return;
    }
    for (unsigned i = 0; i < bytes; ++i)
        writeU8(addr + i, static_cast<u8>(value >> (8 * i)));
}

double
MemoryImage::readF64(Addr addr) const
{
    u64 raw = readU64(addr);
    double d;
    std::memcpy(&d, &raw, sizeof(d));
    return d;
}

void
MemoryImage::writeF64(Addr addr, double value)
{
    u64 raw;
    std::memcpy(&raw, &value, sizeof(raw));
    writeU64(addr, raw);
}

void
MemoryImage::load(Addr base, const std::vector<u8> &bytes)
{
    // One lookup and one copy per page-sized chunk.
    for (size_t done = 0; done < bytes.size();) {
        Addr addr = base + done;
        size_t offset = addr & (pageSize - 1);
        size_t chunk = std::min(pageSize - offset, bytes.size() - done);
        std::memcpy(page(addr).data() + offset, bytes.data() + done,
                    chunk);
        done += chunk;
    }
}

} // namespace carf::emu
