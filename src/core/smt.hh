/**
 * @file
 * Result of a simultaneous-multithreading run (paper §6): N hardware
 * threads sharing one core and one content-aware integer register
 * file. The core itself is core::Pipeline constructed with a thread
 * count (core/pipeline.hh; DESIGN.md §4.7).
 *
 * The paper observes that the number of *live* Long registers is far
 * below the Long file's peak-sized capacity (on average ~12.7 of 48),
 * so a single Long file can feed more than one thread. An SMT run
 * tests that claim directly, and measures what the paper never did:
 * how similarity sharing scales with thread count.
 *
 * Cross-thread accounting: the shared Short file tracks which thread
 * first placed each resident value group; a Short-typed writeback by
 * a different thread is a *cross-thread share*
 * (RegisterFile::SharingStats). Long pressure (write stalls,
 * §3.2 recoveries, issue-stall cycles) is attributed per thread.
 */

#ifndef CARF_CORE_SMT_HH
#define CARF_CORE_SMT_HH

#include <vector>

#include "core/core_stats.hh"
#include "regfile/regfile.hh"

namespace carf::core
{

/** Result of an SMT run: per-thread summaries plus shared-file totals. */
struct SmtResult
{
    std::vector<RunResult> threads;
    Cycle cycles = 0;

    /** Per-thread and cross-thread Short-hit counters (shared file). */
    regfile::RegisterFile::SharingStats sharing;
    /**
     * Machine-level cycle attribution: each cycle takes the
     * most-productive bucket across threads (lowest enum value, so
     * any thread committing makes the machine cycle a Commit cycle).
     * Sums to cycles; equals threads[0]'s accounting when T == 1.
     * Per-thread accounting (each summing to cycles too) lives in
     * threads[i].cycleAccounting.
     */
    CycleAccounting machineAccounting;
    /**
     * Longest streak of cycles any stalled ROB head waited for its
     * forced-write grant (recovery-fairness starvation bound).
     */
    u64 maxRecoveryWait = 0;

    /** Aggregate committed-instruction throughput. */
    double
    totalIpc() const
    {
        double sum = 0.0;
        for (const auto &t : threads)
            sum += t.ipc;
        return sum;
    }
    u64
    totalInsts() const
    {
        u64 sum = 0;
        for (const auto &t : threads)
            sum += t.committedInsts;
        return sum;
    }

    /**
     * Fairness: min/max per-thread IPC ratio (1.0 = perfectly fair,
     * 0 = some thread starved).
     */
    double fairness() const;

    /**
     * Collapse the run into one RunResult: summed per-thread
     * counters, shared-file statistics from thread 0's record,
     * '+'-joined workload name, and the smt* fields filled in. This
     * is what the experiment runner stores and reports.
     */
    RunResult aggregate() const;
};

} // namespace carf::core

#endif // CARF_CORE_SMT_HH
