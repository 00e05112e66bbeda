#include "core/rename.hh"

#include "common/logging.hh"

namespace carf::core
{

FreeList::FreeList(u32 total, u32 first)
{
    if (first > total)
        panic("FreeList: first %u > total %u", first, total);
    free_.reserve(total - first);
    // Pop order: lowest tag first (purely cosmetic determinism).
    for (u32 tag = total; tag > first; --tag)
        free_.push_back(tag - 1);
}

u32
FreeList::allocate()
{
    if (free_.empty())
        panic("FreeList: allocate from empty list");
    u32 tag = free_.back();
    free_.pop_back();
    return tag;
}

void
FreeList::release(u32 tag)
{
    free_.push_back(tag);
}

} // namespace carf::core
