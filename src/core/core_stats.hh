/**
 * @file
 * Pipeline statistics bundle and the run-result summary returned by
 * Pipeline::run().
 */

#ifndef CARF_CORE_CORE_STATS_HH
#define CARF_CORE_CORE_STATS_HH

#include <string>
#include <type_traits>
#include <vector>

#include "core/bypass.hh"
#include "regfile/regfile.hh"

namespace carf::core
{

/**
 * Source-operand type-combination buckets for integer instructions
 * (paper Table 4, for instructions reading at least one integer
 * register operand).
 */
struct OperandMix
{
    enum Bucket : unsigned
    {
        OnlySimple,
        OnlyShort,
        OnlyLong,
        SimpleShort,
        SimpleLong,
        ShortLong,
        NumBuckets,
    };

    u64 counts[NumBuckets] = {};

    static const char *bucketName(unsigned bucket);

    void
    record(bool has_simple, bool has_short, bool has_long)
    {
        unsigned kinds = (has_simple ? 1 : 0) + (has_short ? 1 : 0) +
                         (has_long ? 1 : 0);
        if (kinds == 0)
            return;
        if (kinds == 1) {
            if (has_simple)
                ++counts[OnlySimple];
            else if (has_short)
                ++counts[OnlyShort];
            else
                ++counts[OnlyLong];
        } else if (has_simple && has_short && !has_long) {
            ++counts[SimpleShort];
        } else if (has_simple && has_long && !has_short) {
            ++counts[SimpleLong];
        } else if (has_short && has_long && !has_simple) {
            ++counts[ShortLong];
        } else {
            // Three kinds across >2 operands: bucket with the rarest
            // pair, mirroring the paper's six-way table.
            ++counts[ShortLong];
        }
    }

    u64 total() const;
    double fraction(unsigned bucket) const;
};

/**
 * Inter-cluster communication estimate for the §6 value-type-clustered
 * microarchitecture: an instruction is steered to the cluster of its
 * result type; each register source operand of a *different* type
 * requires an inter-cluster transfer.
 */
struct ClusterStats
{
    /** Operands whose type matches the consumer's steering type. */
    u64 localOperands = 0;
    /** Operands needing an inter-cluster transfer. */
    u64 crossOperands = 0;

    ClusterStats &
    operator+=(const ClusterStats &other)
    {
        localOperands += other.localOperands;
        crossOperands += other.crossOperands;
        return *this;
    }

    double
    crossFraction() const
    {
        u64 total = localOperands + crossOperands;
        return total ? static_cast<double>(crossOperands) / total : 0.0;
    }
};

/**
 * Exact attribution of every simulated cycle to one bucket, decided
 * at the top of the cycle from pre-stage machine state (so the
 * classification is a pure function of state and identical whether a
 * quiescent stretch is stepped or skipped). The buckets follow the
 * oldest unfinished work: what is the ROB head (or, with an empty
 * ROB, the front end) waiting for this cycle?
 */
struct CycleAccounting
{
    enum Bucket : unsigned
    {
        /** Head is written back: at least one commit happens. */
        Commit,
        /** Head stalled in the Long-file writeback recovery wait. */
        LongStall,
        /** Head is an issued load waiting on the memory hierarchy. */
        MemWait,
        /** Head is issued, waiting on a (non-load) execution latency. */
        ExecWait,
        /** Head finished executing and awaits its writeback slot. */
        WbWait,
        /** Head is dispatched-not-issued and the ROB is full. */
        RobFull,
        /** Head is dispatched-not-issued (operands/ports/parking). */
        IssueBound,
        /** ROB empty; fetch is waiting on an I-cache fill. */
        IcacheWait,
        /** ROB empty; fetched instructions are still being renamed. */
        FrontendFill,
        /** ROB empty and nothing buffered: redirect/drain/exhausted. */
        FetchEmpty,
        NumBuckets,
    };

    u64 counts[NumBuckets] = {};

    static const char *bucketName(unsigned bucket);

    u64 total() const;
};

/** Summary of one simulated run. */
struct RunResult
{
    std::string workload;
    std::string config;

    Cycle cycles = 0;
    u64 committedInsts = 0;
    double ipc = 0.0;

    u64 condBranches = 0;
    u64 branchMispredicts = 0;

    BypassStats bypass;
    OperandMix operandMix;
    ClusterStats cluster;

    regfile::AccessCounts intRfAccesses;
    /** Short file allocation writes (address path). */
    u64 shortFileWrites = 0;

    u64 longAllocStalls = 0;
    u64 recoveries = 0;
    u64 issueStallCycles = 0;
    double avgLiveLong = 0.0;
    double avgLiveShort = 0.0;

    /** Model-level read-port refusals (port-reduction backends). */
    u64 portConflictOps = 0;
    /** Cycles with at least one model-level read-port refusal. */
    u64 portConflictCycles = 0;

    /** Per-bucket attribution of every cycle (sums to cycles). */
    CycleAccounting cycleAccounting;

    /**
     * Fast-path diagnostics: number of O(1) jumps taken and cycles
     * they covered. Deliberately *not* serialized — like the host
     * times, they differ between the stepped and skipping loops while
     * everything architectural stays bit-identical.
     */
    u64 fastPathSkips = 0;
    u64 fastPathSkippedCycles = 0;

    // --- Statistical-sampling fields (present when the run used the
    // --- SMARTS-style sampling mode; samplingPeriod==0 means a full
    // --- run and the block is omitted from JSON) ---

    /** Instructions per sampling period (0 = full detailed run). */
    u64 samplingPeriod = 0;
    /** Detailed warm-up instructions per period. */
    u64 samplingWarmup = 0;
    /** Measured detailed instructions per period. */
    u64 samplingMeasure = 0;
    /** Measurement intervals that contributed to the estimate. */
    u64 samplingIntervals = 0;
    /** Instructions functionally fast-forwarded between intervals. */
    u64 samplingSkippedInsts = 0;
    /** 95% confidence half-width on the sampled IPC estimate. */
    double samplingIpcCi95 = 0.0;

    // --- SMT aggregate fields (defaults describe a solo run, so a
    // --- solo RunResult round-trips unchanged) ---

    /** Hardware threads in the run (1 for the solo pipeline). */
    unsigned smtThreads = 1;
    /** Per-thread committed instructions (empty for solo runs). */
    std::vector<u64> smtThreadInsts;
    /** Per-thread IPC (empty for solo runs). */
    std::vector<double> smtThreadIpc;
    /** Short-typed writebacks hitting a resident group (SMT runs). */
    u64 smtShortHits = 0;
    /** Subset of smtShortHits on a group placed by another thread. */
    u64 smtCrossShortHits = 0;
    /**
     * Longest streak of cycles any stalled ROB head waited for its
     * §3.2 forced-write grant (recovery-fairness starvation bound).
     */
    u64 smtMaxRecoveryWait = 0;

    /**
     * Host wall-clock seconds this run took end to end. Always equals
     * traceBuildSeconds + simSeconds. Like the other host-time fields
     * below it is nondeterministic: equivalence checks must ignore all
     * three.
     */
    double wallSeconds = 0.0;
    /**
     * Host seconds spent obtaining the dynamic trace before the
     * pipeline ran. With a TraceCache this is the emulation cost on a
     * miss and ~0 on a hit; without one, trace construction streams
     * lazily inside the cycle loop, so this stays 0 and the emulator's
     * cost lands in simSeconds (the pre-split behavior).
     */
    double traceBuildSeconds = 0.0;
    /** Host seconds spent in pipeline warm-up plus the timed run. */
    double simSeconds = 0.0;

    double branchMispredictRate() const
    {
        return condBranches
                   ? static_cast<double>(branchMispredicts) / condBranches
                   : 0.0;
    }
};

/**
 * Serialized block of a RunResult field: Core is always present, Smt
 * only for multithreaded runs (smtThreads > 1), Sampling only for
 * sampled runs (samplingPeriod > 0), HostTime (nondeterministic host
 * seconds) only on request.
 */
enum class ResultBlock { Core, Smt, Sampling, HostTime };

/**
 * How SmtResult::aggregate() folds the per-thread records: Sum over
 * threads, Thread0's value (the shared file's statistics, or a
 * setting), or Machine-level state set by the aggregate itself.
 */
enum class SmtMerge { Sum, Thread0, Machine };

/**
 * Every serialized RunResult field, once, in serialization order:
 * visit(json_name, block, merge, get) per field, where merge is a
 * std::integral_constant<SmtMerge, ...> (a Sum on a type that cannot
 * be summed fails to compile) and get(result) returns the field of a
 * const or mutable RunResult by reference. runResultJsonFull(),
 * parseRunResultJson() and SmtResult::aggregate() are driven by this
 * list, so a new field is one line here. The fastPathSkips fields are
 * deliberately absent (see RunResult).
 */
template <typename Visit>
void
forEachResultField(Visit &&visit)
{
#define CARF_FIELD(name, block, merge, member)                            \
    visit(name, ResultBlock::block,                                       \
          std::integral_constant<SmtMerge, SmtMerge::merge>{},            \
          [](auto &r) -> auto & { return r.member; })
    CARF_FIELD("workload", Core, Machine, workload);
    CARF_FIELD("config", Core, Thread0, config);
    CARF_FIELD("cycles", Core, Machine, cycles);
    CARF_FIELD("committed_insts", Core, Sum, committedInsts);
    CARF_FIELD("ipc", Core, Machine, ipc);
    CARF_FIELD("cond_branches", Core, Sum, condBranches);
    CARF_FIELD("branch_mispredicts", Core, Sum, branchMispredicts);
    CARF_FIELD("bypass", Core, Sum, bypass);
    CARF_FIELD("operand_mix", Core, Sum, operandMix.counts);
    CARF_FIELD("cluster", Core, Sum, cluster);
    CARF_FIELD("rf_reads", Core, Thread0, intRfAccesses.reads);
    CARF_FIELD("rf_writes", Core, Thread0, intRfAccesses.writes);
    CARF_FIELD("short_probe_reads", Core, Thread0,
               intRfAccesses.shortProbeReads);
    CARF_FIELD("short_file_writes", Core, Thread0, shortFileWrites);
    CARF_FIELD("long_alloc_stalls", Core, Sum, longAllocStalls);
    CARF_FIELD("recoveries", Core, Sum, recoveries);
    CARF_FIELD("issue_stall_cycles", Core, Sum, issueStallCycles);
    CARF_FIELD("avg_live_long", Core, Thread0, avgLiveLong);
    CARF_FIELD("avg_live_short", Core, Thread0, avgLiveShort);
    CARF_FIELD("port_conflict_ops", Core, Thread0, portConflictOps);
    CARF_FIELD("port_conflict_cycles", Core, Thread0, portConflictCycles);
    CARF_FIELD("cycle_buckets", Core, Machine, cycleAccounting.counts);
    CARF_FIELD("smt_threads", Smt, Machine, smtThreads);
    CARF_FIELD("smt_thread_insts", Smt, Machine, smtThreadInsts);
    CARF_FIELD("smt_thread_ipc", Smt, Machine, smtThreadIpc);
    CARF_FIELD("smt_short_hits", Smt, Machine, smtShortHits);
    CARF_FIELD("smt_cross_short_hits", Smt, Machine, smtCrossShortHits);
    CARF_FIELD("smt_max_recovery_wait", Smt, Machine, smtMaxRecoveryWait);
    CARF_FIELD("sampling_period", Sampling, Thread0, samplingPeriod);
    CARF_FIELD("sampling_warmup", Sampling, Thread0, samplingWarmup);
    CARF_FIELD("sampling_measure", Sampling, Thread0, samplingMeasure);
    CARF_FIELD("sampling_intervals", Sampling, Thread0, samplingIntervals);
    CARF_FIELD("sampling_skipped_insts", Sampling, Thread0,
               samplingSkippedInsts);
    CARF_FIELD("sampling_ipc_ci95", Sampling, Thread0, samplingIpcCi95);
    CARF_FIELD("wall_seconds", HostTime, Machine, wallSeconds);
    CARF_FIELD("trace_build_seconds", HostTime, Machine, traceBuildSeconds);
    CARF_FIELD("sim_seconds", HostTime, Machine, simSeconds);
#undef CARF_FIELD
}

} // namespace carf::core

#endif // CARF_CORE_CORE_STATS_HH
