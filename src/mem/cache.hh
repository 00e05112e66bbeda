/**
 * @file
 * Set-associative cache timing model with LRU replacement.
 *
 * Functional data lives in the emulator's MemoryImage; these caches
 * model hit/miss behaviour and latency only, which is all the paper's
 * evaluation needs (Table 1 fixes the hierarchy).
 */

#ifndef CARF_MEM_CACHE_HH
#define CARF_MEM_CACHE_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace carf::mem
{

/** Cache geometry and timing parameters. */
struct CacheParams
{
    std::string name = "cache";
    size_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    /** Latency added on a hit in this level. */
    Cycle hitLatency = 1;
};

/** LRU set-associative cache (timing/tag array only). */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Access the line holding @p addr, updating tags and LRU state.
     * @retval true on a hit
     */
    bool access(Addr addr);

    /** Probe without mutating state. */
    bool probe(Addr addr) const;

    const CacheParams &params() const { return params_; }
    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }
    double missRate() const;

  private:
    struct Line
    {
        bool valid = false;
        u64 tag = 0;
        /** Higher = more recently used. */
        u64 lruStamp = 0;
    };

    size_t setIndex(Addr addr) const;
    u64 tagOf(Addr addr) const;

    CacheParams params_;
    unsigned lineShift_;
    size_t numSets_;
    std::vector<Line> lines_; // numSets_ * assoc, set-major
    u64 stamp_ = 0;
    u64 hits_ = 0;
    u64 misses_ = 0;
};

} // namespace carf::mem

#endif // CARF_MEM_CACHE_HH
