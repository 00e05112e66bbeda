/**
 * @file
 * The out-of-order superscalar core (paper Table 1), driven by one
 * program-order dynamic instruction trace per hardware thread.
 *
 * Timing model summary:
 *  - 8-wide fetch/rename/issue/commit; 128-entry ROB, 64-entry LSQ,
 *    32+32 issue queue slots; gshare+BTB+RAS front end; two-level
 *    cache hierarchy.
 *  - A result completing at cycle c is forwardable via bypass for
 *    `bypassWindow` cycles; afterwards consumers read the register
 *    file (subject to read-port arbitration at issue).
 *  - The content-aware organization adds a second register-read stage
 *    (RF1/RF2) and a two-stage writeback (WR1 classification, WR2
 *    write + Long allocation); Long exhaustion stalls the writeback,
 *    and an issue-stall threshold on free Long entries plus a
 *    head-of-ROB forced allocation implement the paper's
 *    pseudo-deadlock avoidance/recovery.
 *
 * The front end never fetches wrong-path instructions; a mispredicted
 * branch stalls fetch until the branch executes, charging the full
 * redirect-plus-refill latency (see DESIGN.md substitutions).
 *
 * One core model serves every thread count (DESIGN.md §4.7). With T
 * hardware threads (paper §6, EV8-flavoured):
 *  - per thread: the architectural RATs, a ROB and an LSQ slice of
 *    capacity / T, the fetch buffer and fetch latches, and the
 *    issue/writeback scan lists and parking heap;
 *  - shared: the physical register files and their tag free lists,
 *    both issue queues, issue/writeback/commit bandwidth, functional
 *    units, the caches, and the branch predictor (pcs and data
 *    addresses salted by thread id; thread 0's salt is zero).
 * Commit, writeback and issue visit threads in an order that rotates
 * every cycle; rename and fetch follow ICOUNT (fewest instructions
 * waiting in the issue queues first), with a per-thread issue-queue
 * share cap. At most one §3.2 forced Long grant is awarded per cycle,
 * to the first stalled ROB head in rotating order. T = 1 is the solo
 * core: every policy degenerates to the single-thread rule.
 *
 * A one-thread Pipeline is also a resumable lane:
 * beginRun()/stepCycle()/finishRun() expose the cycle loop so the
 * sampling engine can stop and resume it between functional gaps.
 */

#ifndef CARF_CORE_PIPELINE_HH
#define CARF_CORE_PIPELINE_HH

#include <array>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "core/core_stats.hh"
#include "core/fetch_stream.hh"
#include "core/issue_queue.hh"
#include "core/lsq.hh"
#include "core/params.hh"
#include "core/rename.hh"
#include "core/rob.hh"
#include "core/smt.hh"
#include "emu/trace.hh"
#include "mem/hierarchy.hh"
#include "regfile/regfile.hh"

namespace carf::core
{

/**
 * Per-cycle observer hook; the live-value oracle (src/sim) implements
 * this to sample the integer register file.
 */
class CycleObserver
{
  public:
    virtual ~CycleObserver() = default;
    virtual void sampleCycle(Cycle cycle,
                             const regfile::RegisterFile &int_rf) = 0;
};

/** Trace-driven out-of-order pipeline with 1..T hardware threads. */
class Pipeline
{
  public:
    /**
     * @param params core configuration; ROB/LSQ capacities are split
     *        evenly across threads
     * @param num_threads hardware thread count (>= 1)
     */
    explicit Pipeline(const CoreParams &params, unsigned num_threads = 1);
    ~Pipeline();

    /**
     * Simulate @p source to exhaustion and return the run summary
     * (one-thread cores).
     * @param observer optional per-cycle register file sampler
     */
    RunResult run(emu::TraceSource &source,
                  CycleObserver *observer = nullptr);

    /** As above over an externally predicted stream. */
    RunResult run(FetchStream &stream, CycleObserver *observer = nullptr);

    /**
     * Run one trace per hardware thread.
     *
     * @param stop_on_first_drain end the measurement when the first
     *        thread completes (standard SMT methodology: per-thread
     *        IPC is only meaningful while all threads are active);
     *        when false, runs until every trace drains
     * @pre sources.size() == the thread count
     */
    SmtResult run(std::vector<emu::TraceSource *> sources,
                  bool stop_on_first_drain = true);

    /**
     * Fast-forward: functionally consume up to @p insts instructions
     * from @p source before timed simulation, warming the branch
     * predictor, caches, the Short file, and the architectural
     * register values (the paper measures representative windows
     * after a SimPoint-style skip). Call before run(), at most once.
     */
    void warmUp(emu::TraceSource &source, u64 insts);

    /** As above over an externally predicted stream. */
    void warmUp(FetchStream &stream, u64 insts);

    // --- resumable-lane interface (one-thread cores only) ---

    /**
     * Architectural values accumulated across chunked warm-up calls;
     * zero-initialized, passed to every warmUpRange() of one warm-up
     * and installed by finishWarmUp().
     */
    struct WarmupScratch
    {
        std::array<u64, isa::numArchRegs> intVals{};
        std::array<bool, isa::numArchRegs> intSet{};
        std::array<u64, isa::numArchRegs> fpVals{};
        std::array<bool, isa::numArchRegs> fpSet{};
    };

    /**
     * Functionally consume up to @p insts records of @p stream into
     * @p scratch (one slice of a possibly chunked warm-up). Stops
     * early only when the stream ends.
     */
    void warmUpRange(FetchStream &stream, u64 insts,
                     WarmupScratch &scratch);

    /**
     * Install the warm-up's architectural values and reset statistics
     * for the timed window. Call once, after the last warmUpRange().
     */
    void finishWarmUp(const WarmupScratch &scratch);

    /**
     * Install the architectural values gathered by warmUpRange()
     * *without* resetting statistics — the sampling engine's variant
     * of finishWarmUp(), used between measurement intervals of one
     * timed window (issue cross-checks every RegFile operand against
     * the trace, so resumed execution needs current values).
     */
    void installWarmState(const WarmupScratch &scratch);

    /**
     * Re-arm a drained lane for more trace records after a functional
     * fast-forward gap (sampling mode): clears the trace-exhausted
     * and fetch-pacing latches while keeping cycle_, caches, the
     * predictor, rename state, and all statistics. Call only when
     * !active().
     */
    void resetForResume();

    /** Arm the timed window: reset statistics and the cycle counter. */
    void beginRun(const std::string &workload_name,
                  CycleObserver *observer = nullptr);

    /**
     * True while the timed window still has work: trace records left
     * to fetch or instructions in flight. beginRun() must have run.
     */
    bool
    active() const
    {
        if (numThreads_ == 1)
            return !threads_[0].drained();
        bool any_drained = false, all_drained = true;
        for (const Thread &t : threads_) {
            bool d = t.drained();
            any_drained |= d;
            all_drained &= d;
        }
        return stopOnFirstDrain_ ? !any_drained : !all_drained;
    }

    /**
     * Advance the lane by one cycle, fetching from @p stream. The
     * caller may switch the stream object between calls as long as
     * the record sequence is the one uninterrupted program-order
     * trace the lane has been consuming.
     */
    void stepCycle(FetchStream &stream);

    /** Close the timed window and return the run summary. */
    RunResult finishRun();

    regfile::RegisterFile &intRegFile() { return *intRf_; }
    const regfile::RegisterFile &intRegFile() const { return *intRf_; }

    /**
     * Enable/disable the exact idle-cycle skip in stepCycle (default
     * on). Skipping is bit-identical to stepping — the flag exists so
     * tests and benches can run the stepped loop for differential
     * checks and honest speedup measurement.
     */
    void setFastPath(bool on) { fastPath_ = on; }

    /**
     * Debug gate: run the register-file model's structural
     * checkInvariants() after every stepped cycle and panic on the
     * first violation. Testing only — quadratic-ish cost.
     */
    void enableInvariantChecks() { checkInvariantsEveryCycle_ = true; }

    /** Thread 0's committed instructions in the current window. */
    u64 committedInsts() const { return threads_[0].result.committedInsts; }
    /** Current cycle of the timed window. */
    Cycle currentCycle() const { return cycle_; }
    /** Thread 0's cycle-bucket attribution (sums to currentCycle()). */
    const CycleAccounting &cycleAccounting() const
    {
        return threads_[0].result.cycleAccounting;
    }

    /**
     * Architectural value of thread 0's integer register @p idx
     * through the current rename mapping (valid once the pipeline has
     * drained; used to cross-check the timing model against pure
     * functional execution).
     */
    u64 archIntReg(unsigned idx) const;
    /** Architectural value (raw bits) of fp register @p idx. */
    u64 archFpReg(unsigned idx) const;

  private:
    /** Per-physical-tag timing state. */
    struct TagInfo
    {
        enum class State : u8 { Pending, Issued, Done };
        State state = State::Done;
        Cycle completeCycle = 0;
        /** First cycle the value is readable from the file. */
        Cycle rfReadableCycle = 0;
        /**
         * While Pending: a lower bound on the producing instruction's
         * issue cycle (set at rename, raised when the producer is
         * parked). Lets consumers of a parked producer park too, so
         * whole dependency chains leave the issue scan.
         */
        Cycle earliestIssue = 0;
    };

    struct FetchedInst
    {
        emu::DynOp op;
        Cycle fetchCycle = 0;
        bool mispredicted = false;
    };

    struct SourceView
    {
        u32 tag = invalidIndex;
        bool isFp = false;
        u64 value = 0;
        bool used = false;
    };

    using ParkedInst = std::pair<Cycle, InFlightInst *>;

    /** A consumer waiting for the producer of tag (tag, isFp). */
    struct Waiter
    {
        u32 tag;
        bool isFp;
        InFlightInst *inst;
    };

    /** Per-thread front-end, rename, and window state. */
    struct Thread
    {
        Thread(unsigned rob_capacity, unsigned lsq_capacity);

        /** The program-order stream this thread fetches from. */
        FetchStream *stream = nullptr;
        std::array<u32, isa::numArchRegs> intRat{};
        std::array<u32, isa::numArchRegs> fpRat{};
        Rob rob;
        Lsq lsq;

        /**
         * Scan lists over the thread's ROB window, so the per-cycle
         * issue and writeback stages visit only live candidates
         * instead of walking the whole ROB. Entries are raw pointers
         * into the ROB ring (slots are stable between push and pop;
         * there is no flush path — the front end never fetches
         * wrong-path instructions).
         *
         * dispatched holds state==Dispatched instructions in program
         * order (appended at rename, compacted at issue). pendingWb
         * holds state==Issued instructions sorted by seq
         * (binary-insert at issue, compacted at writeback), which is
         * exactly the age order a full-ROB scan visits them in.
         */
        std::vector<InFlightInst *> dispatched;
        std::vector<InFlightInst *> pendingWb;

        /**
         * Dispatched instructions parked out of the issue scan until
         * a known cycle: a min-heap keyed by the first cycle their
         * operand check could pass, derived only from facts that
         * cannot change before then (an issued producer's
         * completeCycle, a written-back producer's rfReadableCycle,
         * or a parked producer's own bound). Entries re-enter
         * dispatched at their age-ordered position when the bound
         * arrives, so issue decisions are bit-identical to the full
         * scan — the parked cycles are exactly the ones whose check
         * was guaranteed to fail. A Long issue-stall cycle unparks
         * everything first, keeping issueStallCycles exact.
         */
        std::vector<ParkedInst> parked;
        /**
         * Dispatched instructions taken out of the issue scan until a
         * source's producer issues: their check cannot pass before it
         * does; the issue parks them, bounded by the completion.
         * Consumers wait here only on multithreaded cores, only from
         * Long issue-stall cycles, when blocked producers stay
         * unissued for long, and only if they write no integer
         * register — a stall cycle must see every dispatched integer
         * writer.
         */
        std::vector<Waiter> waiting;
        /**
         * Entries of dispatched that do not write an integer register:
         * the only ones besides the ROB head a Long issue stall
         * leaves eligible, so a multithreaded stall-cycle scan can
         * stop once it has passed them all.
         */
        unsigned dispatchedNonIntWriters = 0;

        RingBuffer<FetchedInst> fetchBuffer;
        bool traceExhausted = false;
        bool pendingRedirect = false;
        Cycle fetchResumeCycle = 0;
        u64 lastFetchLine = ~u64{0};
        /** Record pulled from the stream but stalled on an I-miss. */
        FetchEntry pendingFetch;
        bool pendingFetchValid = false;

        /** Dispatched-but-not-issued instructions (ICOUNT metric). */
        unsigned iqCount = 0;
        /** Per-queue occupancy, bounded by the per-thread share cap. */
        unsigned intIqCount = 0;
        unsigned fpIqCount = 0;
        /** Consecutive cycles this ROB head waited for a forced grant. */
        u64 headStallWait = 0;
        RunResult result;

        bool
        drained() const
        {
            return traceExhausted && rob.empty() && fetchBuffer.empty() &&
                   !pendingFetchValid;
        }
    };

    /** Reset statistics and the clock for a new timed window. */
    void startWindow(CycleObserver *observer);

    /** Advance every thread by one cycle (or skip an idle stretch). */
    void step();

    /**
     * Attribute the next @p n cycles to one CycleAccounting bucket per
     * thread plus the machine bucket, as a pure function of pre-stage
     * machine state (so stepped and skipped execution classify
     * identically).
     */
    template <bool Smt>
    void accountCycles(Cycle n);
    unsigned classifyThread(const Thread &thread) const;

    /**
     * Conservative fast-path bound: the first cycle > @p cur at which
     * any stage of any thread could observably act, given that no
     * stage acts at @p cur. Returns 0 when some structure cannot
     * bound its next event (or could act at @p cur itself) — the
     * caller must step.
     */
    Cycle quiescentUntil(Cycle cur) const;

    /** Watchdog: panic with the stuck ROB head's state. */
    [[noreturn]] void reportHang() const;

    /**
     * One cycle of every stage. Smt = false is the one-thread
     * instantiation: the thread loops collapse to thread 0 and the
     * SMT-only bookkeeping (ICOUNT counts, thread attribution in the
     * register file, per-thread Long counters) compiles away.
     */
    template <bool Smt>
    void stepStages(Cycle cur);

    // --- per-cycle stages (called newest-to-oldest pipeline order) ---
    template <bool Smt>
    void doCommit(Cycle cur);
    template <bool Smt>
    void doWriteback(Cycle cur);
    template <bool Smt>
    void doIssue(Cycle cur);
    template <bool Smt>
    void doRename(Cycle cur);
    template <bool Smt>
    void doFetch(Cycle cur);

    /** Fetch for @p tid out of the shared per-cycle @p budget. */
    void fetchThread(Cycle cur, unsigned tid, unsigned &budget);

    /** Gather the register sources of @p inst. */
    void gatherSources(const InFlightInst &inst, SourceView &s1,
                       SourceView &s2) const;

    /**
     * Attempt the writeback of @p inst (state Issued) of thread
     * @p tid; true when it reached WrittenBack this cycle.
     * @param force_grant_used this cycle's §3.2 forced Long grant
     */
    template <bool Smt>
    bool tryWriteback(Thread &thread, unsigned tid, InFlightInst &inst,
                      Cycle cur, unsigned &int_ports, unsigned &fp_ports,
                      bool &force_grant_used);

    /**
     * @p producer of @p thread just issued: park the consumers waiting
     * on its destination tag until its result can be read.
     */
    void wakeWaiters(Thread &thread, const InFlightInst &producer);


    /** Move @p inst back into @p thread's dispatched list. */
    static void unpark(Thread &thread, InFlightInst *inst);

    /**
     * Fill icountOrder_: thread ids by ascending iqCount, ties by id
     * (ICOUNT, Tullsen et al.), without allocating.
     */
    void sortIcount();

    /** Thread id @p off places after this cycle's rotation start. */
    unsigned
    rotated(unsigned off) const
    {
        unsigned tid = rrCounter_ + off;
        return tid >= numThreads_ ? tid - numThreads_ : tid;
    }

    /** Tag timing lookup by class (hot; called per operand check). */
    TagInfo &tagInfo(u32 tag, bool is_fp)
    {
        return is_fp ? fpTags_[tag] : intTags_[tag];
    }
    const TagInfo &tagInfo(u32 tag, bool is_fp) const
    {
        return is_fp ? fpTags_[tag] : intTags_[tag];
    }

    /**
     * The owned serial front end backing the TraceSource entry
     * points. Created on first use and kept for the Pipeline's
     * lifetime so predictor state spans warmUp() and run().
     */
    FetchStream &serialStream(emu::TraceSource &source);

    /** Panic unless this is a one-thread core (@p what for the log). */
    void requireSolo(const char *what) const;

    CoreParams params_;
    unsigned numThreads_;

    std::unique_ptr<regfile::RegisterFile> intRf_;
    std::unique_ptr<regfile::RegisterFile> fpRf_;

    FreeList intFreeList_;
    FreeList fpFreeList_;
    std::vector<TagInfo> intTags_;
    std::vector<TagInfo> fpTags_;

    IssueQueue intIq_;
    IssueQueue fpIq_;
    /** Per-thread issue-queue share caps (capacity when T == 1). */
    unsigned intIqCap_;
    unsigned fpIqCap_;

    std::vector<Thread> threads_;
    /** Rename/fetch thread order, rebuilt by sortIcount(). */
    std::vector<unsigned> icountOrder_;
    /** First thread of this cycle's commit/writeback/issue rotation. */
    unsigned rrCounter_ = 0;
    bool stopOnFirstDrain_ = true;

    std::unique_ptr<PredictingFetchStream> serialStream_;

    mem::Hierarchy memory_;

    /** Commits (all threads) toward the next ROB-interval epoch. */
    u64 committedSinceInterval_ = 0;

    // --- timed-window cycle-loop state (spans stepCycle calls) ---
    bool fastPath_ = true;
    bool checkInvariantsEveryCycle_ = false;
    Cycle cycle_ = 0;
    /** Commits by all threads in the window (watchdog progress). */
    u64 committedTotal_ = 0;
    u64 lastCommitCount_ = 0;
    Cycle lastProgressCycle_ = 0;
    stats::Average liveLong_;
    stats::Average liveShort_;
    /** Most-productive bucket across threads, per machine cycle. */
    CycleAccounting machineAccounting_;
    /** Starvation bound over all threads (SmtResult::maxRecoveryWait). */
    u64 maxRecoveryWait_ = 0;
    CycleObserver *observer_ = nullptr;
};

/**
 * The multithreaded core is the same class; the name stays for the
 * SMT call sites (core::SmtPipeline(params, T).run(sources)).
 */
using SmtPipeline = Pipeline;

} // namespace carf::core

#endif // CARF_CORE_PIPELINE_HH
