/**
 * @file
 * Register renaming: the physical tag free list. The register alias
 * tables are plain per-thread arrays in the pipeline (core/pipeline.hh),
 * allocating from one free list per register class shared by all
 * hardware threads.
 *
 * Integer architectural register 0 is hardwired to zero and is never
 * renamed nor mapped; reads of it carry no dependence and no register
 * file access.
 */

#ifndef CARF_CORE_RENAME_HH
#define CARF_CORE_RENAME_HH

#include <vector>

#include "common/types.hh"
#include "isa/opcode.hh"

namespace carf::core
{

/** Physical tag free list. */
class FreeList
{
  public:
    /** Tags [first, total) start free; [0, first) are pre-allocated. */
    FreeList(u32 total, u32 first);

    bool empty() const { return free_.empty(); }
    size_t freeCount() const { return free_.size(); }

    u32 allocate();
    void release(u32 tag);

  private:
    std::vector<u32> free_;
};

} // namespace carf::core

#endif // CARF_CORE_RENAME_HH
