/**
 * @file
 * Shared, thread-safe memoization of dynamic traces.
 *
 * A configuration sweep simulates C configurations over W workloads;
 * without a cache every job re-runs the functional emulator, paying
 * C*W emulations for what are only W distinct traces. TraceCache
 * stores each workload's TraceBuffer once:
 *
 *  - **build-once**: concurrent jobs that miss on the same workload
 *    block on a shared future while exactly one of them emulates;
 *  - **budget-aware**: an entry built to budget B serves any request
 *    with budget <= B (traces are deterministic prefixes), and any
 *    budget at all once the program has halted; a larger request
 *    rebuilds and replaces the entry;
 *  - **bounded**: total resident bytes are capped by an LRU byte
 *    budget. A build stops once its encoding passes the budget and
 *    keeps nothing — the caller falls back to streaming emulation,
 *    and the fallback is logged (once per workload) so cache
 *    behavior is never silent.
 *
 * The cache lives in emu and is keyed by workload name, taking a
 * builder callback instead of a Workload so it does not depend on the
 * workload registry.
 */

#ifndef CARF_EMU_TRACE_CACHE_HH
#define CARF_EMU_TRACE_CACHE_HH

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "emu/trace_buffer.hh"

namespace carf::emu
{

class TraceCache
{
  public:
    /** Default LRU byte budget: 512 MiB of encoded trace. */
    static constexpr u64 kDefaultByteBudget = u64{512} << 20;

    /** Produces a fresh stream for a workload (typically makeTrace). */
    using Builder = std::function<std::unique_ptr<TraceSource>()>;

    explicit TraceCache(u64 byte_budget = kDefaultByteBudget);

    u64 byteBudget() const { return byteBudget_; }

    /**
     * Return a buffer covering the first @p max_insts instructions of
     * workload @p name, building it from @p builder at most once per
     * (workload, sufficient-budget) across all threads.
     *
     * @retval nullptr when the trace cannot fit the byte budget; the
     *         caller must fall back to streaming emulation. Replay the
     *         returned buffer through a Cursor capped at @p max_insts.
     */
    std::shared_ptr<const TraceBuffer>
    acquire(const std::string &name, u64 max_insts,
            const Builder &builder);

    /** Cache effectiveness counters (monotonic over the lifetime). */
    struct Stats
    {
        u64 hits = 0;        //!< served without building
        u64 builds = 0;      //!< traces built (a build stopped at
                             //!< the byte budget is a fallback)
        u64 evictions = 0;   //!< entries dropped by the LRU budget
        u64 fallbacks = 0;   //!< requests answered "stream instead"
        u64 bytesCached = 0; //!< current resident bytes
        u64 entries = 0;     //!< current entry count
    };
    Stats stats() const;

    /**
     * Traces built for @p name (testing hook for the "one build per
     * workload" contract).
     */
    u64 buildCount(const std::string &name) const;

  private:
    struct Entry
    {
        /** Waiters block here while a build is in flight. */
        std::shared_future<std::shared_ptr<const TraceBuffer>> future;
        /** Cached buffer; null while building or after fallback. */
        std::shared_ptr<const TraceBuffer> ready;
        /** True while one thread is emulating this workload. */
        bool building = false;
        /** Fallback already logged for this workload. */
        bool warned = false;
        /** Smallest budget known not to fit the byte budget. */
        u64 tooBigBudget = ~u64{0};
        /** LRU clock of the most recent acquire. */
        u64 lastUse = 0;
        /** Resident bytes once built (0 while building). */
        u64 bytes = 0;
    };

    /** True when a ready @p entry can serve @p max_insts. */
    static bool serves(const TraceBuffer &buffer, u64 max_insts);

    /** Evict least-recently-used complete entries over budget. */
    void evictLocked(const std::string &keep);

    mutable std::mutex mutex_;
    u64 byteBudget_;
    u64 clock_ = 0;
    std::map<std::string, Entry> entries_;
    /** Per-workload build counts; survives LRU eviction. */
    std::map<std::string, u64> buildCounts_;
    Stats stats_;
};

} // namespace carf::emu

#endif // CARF_EMU_TRACE_CACHE_HH
