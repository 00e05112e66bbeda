#include "core/smt.hh"

#include <algorithm>

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

RunResult
SmtResult::aggregate() const
{
    RunResult agg;
    if (threads.empty())
        return agg;

    // Thread 0 carries the shared-file statistics (access counts,
    // Short allocation writes, occupancy averages, port conflicts);
    // start from its record and fold the partners' per-thread
    // counters in.
    agg = threads[0];
    u64 bypassed_int = agg.bypass.bypassed(false);
    u64 bypassed_fp = agg.bypass.bypassed(true);
    u64 regfile_int = agg.bypass.regFileReads(false);
    u64 regfile_fp = agg.bypass.regFileReads(true);
    for (size_t t = 1; t < threads.size(); ++t) {
        const RunResult &r = threads[t];
        agg.workload += "+" + r.workload;
        agg.committedInsts += r.committedInsts;
        agg.condBranches += r.condBranches;
        agg.branchMispredicts += r.branchMispredicts;
        bypassed_int += r.bypass.bypassed(false);
        bypassed_fp += r.bypass.bypassed(true);
        regfile_int += r.bypass.regFileReads(false);
        regfile_fp += r.bypass.regFileReads(true);
        for (unsigned b = 0; b < OperandMix::NumBuckets; ++b)
            agg.operandMix.counts[b] += r.operandMix.counts[b];
        agg.cluster.localOperands += r.cluster.localOperands;
        agg.cluster.crossOperands += r.cluster.crossOperands;
        agg.longAllocStalls += r.longAllocStalls;
        agg.recoveries += r.recoveries;
        agg.issueStallCycles += r.issueStallCycles;
    }
    agg.bypass.restore(bypassed_int, bypassed_fp, regfile_int,
                       regfile_fp);
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
