#include "emu/trace_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace carf::emu
{

TraceCache::TraceCache(u64 byte_budget) : byteBudget_(byte_budget)
{
}

bool
TraceCache::serves(const TraceBuffer &buffer, u64 max_insts)
{
    // A deterministic trace built to budget N is a prefix of any
    // longer run, so a buffer serves every request it is at least as
    // long as — and every request at all once the program halted.
    return buffer.size() >= max_insts || buffer.sawHalt();
}

std::shared_ptr<const TraceBuffer>
TraceCache::acquire(const std::string &name, u64 max_insts,
                    const Builder &builder)
{
    for (;;) {
        std::shared_future<std::shared_ptr<const TraceBuffer>> wait_on;
        std::promise<std::shared_ptr<const TraceBuffer>> promise;
        bool build_here = false;

        {
            std::lock_guard<std::mutex> lock(mutex_);
            Entry &entry = entries_[name];
            entry.lastUse = ++clock_;

            if (entry.ready && serves(*entry.ready, max_insts)) {
                ++stats_.hits;
                return entry.ready;
            }
            if (max_insts >= entry.tooBigBudget) {
                ++stats_.fallbacks;
                return nullptr;
            }
            if (entry.building) {
                // Wait for the in-flight build; re-evaluate after (a
                // smaller build can still serve us if the program
                // halted inside it).
                wait_on = entry.future;
            } else {
                // Become the builder. Any previous (too short) buffer
                // is replaced wholesale.
                if (entry.ready) {
                    stats_.bytesCached -= entry.bytes;
                    entry.ready.reset();
                    entry.bytes = 0;
                }
                entry.future = promise.get_future().share();
                entry.building = true;
                build_here = true;
            }
        }

        if (build_here) {
            auto source = builder();
            std::shared_ptr<const TraceBuffer> buffer =
                TraceBuffer::build(*source, name, max_insts, byteBudget_);

            {
                std::lock_guard<std::mutex> lock(mutex_);
                Entry &entry = entries_[name];
                entry.building = false;
                if (!buffer) {
                    entry.tooBigBudget =
                        std::min(entry.tooBigBudget, max_insts);
                    if (!entry.warned) {
                        entry.warned = true;
                        warn("TraceCache: trace '%s' (%llu insts) "
                             "passed the %llu B budget while building; "
                             "falling back to streaming emulation",
                             name.c_str(), (unsigned long long)max_insts,
                             (unsigned long long)byteBudget_);
                    }
                    ++stats_.fallbacks;
                } else {
                    entry.ready = buffer;
                    entry.bytes = buffer->memoryBytes();
                    stats_.bytesCached += entry.bytes;
                    ++stats_.builds;
                    ++buildCounts_[name];
                    evictLocked(name);
                }
            }
            promise.set_value(buffer);
            return buffer;
        }

        // Waiter path: block on the in-flight build, then loop to
        // re-evaluate (hit, rebuild-bigger, or fallback).
        std::shared_ptr<const TraceBuffer> buffer = wait_on.get();
        if (buffer && serves(*buffer, max_insts)) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.hits;
            return buffer;
        }
    }
}

void
TraceCache::evictLocked(const std::string &keep)
{
    while (stats_.bytesCached > byteBudget_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->first == keep || it->second.building ||
                !it->second.ready) {
                continue;
            }
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse) {
                victim = it;
            }
        }
        if (victim == entries_.end())
            break; // nothing evictable (all building or pinned)
        stats_.bytesCached -= victim->second.bytes;
        ++stats_.evictions;
        entries_.erase(victim);
    }
}

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.entries = 0;
    for (const auto &kv : entries_) {
        if (kv.second.ready)
            ++out.entries;
    }
    return out;
}

u64
TraceCache::buildCount(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = buildCounts_.find(name);
    return it == buildCounts_.end() ? 0 : it->second;
}

} // namespace carf::emu
