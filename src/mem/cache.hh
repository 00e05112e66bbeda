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
    bool
    access(Addr addr)
    {
        ++stamp_;
        u64 tag = addr >> lineShift_;
        if (tag == lastTag_ && lastLine_ != kNoLine) {
            lines_[lastLine_].lruStamp = stamp_;
            ++hits_;
            return true;
        }
        return accessSet(tag);
    }

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
    /** access() past the last-line shortcut: scan the set, fill LRU. */
    bool accessSet(u64 tag);

    /** lastLine_ before the first access. */
    static constexpr size_t kNoLine = ~size_t{0};

    CacheParams params_;
    unsigned lineShift_;
    size_t numSets_;
    std::vector<Line> lines_; // numSets_ * assoc, set-major
    /**
     * The line the last access hit or filled, with its tag. It stays
     * resident and MRU in its set until the next access, so a repeat
     * of its tag is a hit on it without a set scan. An index, not a
     * pointer, so a copied Cache stays valid.
     */
    size_t lastLine_ = kNoLine;
    u64 lastTag_ = 0;
    u64 stamp_ = 0;
    u64 hits_ = 0;
    u64 misses_ = 0;
};

} // namespace carf::mem

#endif // CARF_MEM_CACHE_HH
