#include "core/smt.hh"

#include <algorithm>
#include <iterator>
#include <type_traits>

namespace carf::core
{

double
SmtResult::fairness() const
{
    double lo = 0.0, hi = 0.0;
    bool first = true;
    for (const RunResult &t : threads) {
        if (first) {
            lo = hi = t.ipc;
            first = false;
        } else {
            lo = std::min(lo, t.ipc);
            hi = std::max(hi, t.ipc);
        }
    }
    return hi > 0.0 ? lo / hi : 0.0;
}

namespace
{

template <typename T>
void
addInto(T &sum, const T &value)
{
    if constexpr (std::is_array_v<T>) {
        for (size_t i = 0; i < std::size(sum); ++i)
            sum[i] += value[i];
    } else {
        sum += value;
    }
}

} // namespace

RunResult
SmtResult::aggregate() const
{
    RunResult agg;
    if (threads.empty())
        return agg;

    // Thread 0 carries the shared-file statistics (forEachResultField's
    // Thread0 fields); start from its record, fold the partners' Sum
    // fields in, then set the Machine fields.
    agg = threads[0];
    for (size_t t = 1; t < threads.size(); ++t) {
        agg.workload += "+" + threads[t].workload;
        forEachResultField([&](const char *, ResultBlock, auto merge,
                               auto get) {
            if constexpr (decltype(merge)::value == SmtMerge::Sum)
                addInto(get(agg), get(threads[t]));
        });
    }
    agg.cycles = cycles;
    agg.cycleAccounting = machineAccounting;
    agg.ipc = cycles ? static_cast<double>(agg.committedInsts) / cycles
                     : 0.0;

    agg.smtThreads = static_cast<unsigned>(threads.size());
    agg.smtThreadInsts.clear();
    agg.smtThreadIpc.clear();
    for (const RunResult &r : threads) {
        agg.smtThreadInsts.push_back(r.committedInsts);
        agg.smtThreadIpc.push_back(r.ipc);
    }
    agg.smtShortHits = sharing.totalShortHits();
    agg.smtCrossShortHits = sharing.totalCrossShortHits();
    agg.smtMaxRecoveryWait = maxRecoveryWait;
    return agg;
}

} // namespace carf::core
