/**
 * @file
 * Abstract integer physical register file model (the RegisterFile
 * contract).
 *
 * The out-of-order core interacts with the register file through this
 * interface: physical tags are allocated/freed by rename/commit, while
 * the model tracks per-tag contents, classifies each value once as it
 * is written, arbitrates internal structures, and counts accesses for
 * the energy model.
 *
 * Every virtual hook is one a simulation calls for a reason the core
 * cannot compute itself; there are ten, in four groups:
 *
 *  - **data path**: read() / release(), and one protected doWrite()
 *    behind write() and writeForced(); doNoteAddress() behind
 *    noteAddress(). The hardware thread is an argument (tid), and the
 *    thread count a construction parameter (RegFileParams::threads).
 *    A write returns the value's type (WR1); the core keeps it with
 *    the tag and tallies the operand-mix and clustering statistics
 *    from it at commit, so classification is no hook of its own;
 *  - **core-facing policy**: shouldStallIssue() (read by issue after
 *    that cycle's commit and writeback) and onRobInterval();
 *  - **snapshots**: peek() for one tag's contents, stats() for the
 *    model's counters, occupancy() once per cycle;
 *  - **verification**: checkInvariants(), run every cycle under the
 *    pipeline's debug gate.
 *
 * Long-file stalls and recoveries are the core's counts, made at
 * writeback from WriteAccess::stalled; the model keeps no copy.
 *
 * Two traits are fixed at construction and read without a virtual
 * call: readPortPool() (a shared read-port pool the core arbitrates,
 * for port-reduction backends) and hasValueTaxonomy().
 *
 * Every hook but read(), release(), doWrite() and peek() has a
 * default, so a minimal backend implements just those four. A model
 * is never reset: each run builds a fresh one. Concrete backends are
 * instantiated by name through the factory in regfile/registry.hh.
 * Storage geometry (banks, energy accounting, description) is not a
 * hook: it is a static function of the parameters, carried by the
 * backend's registry entry and evaluated without a model.
 */

#ifndef CARF_REGFILE_REGFILE_HH
#define CARF_REGFILE_REGFILE_HH

#include <string>
#include <vector>

#include "regfile/value_class.hh"

namespace carf::regfile
{

/** Result of a register-file read access. */
struct ReadAccess
{
    /** The 64-bit value reconstructed from the sub-files. */
    u64 value = 0;
    /** Content type of the accessed register. */
    ValueType type = ValueType::Long;
};

/** Result of a register-file write access. */
struct WriteAccess
{
    /**
     * Content type of the written value (the WR1 classification); the
     * core keeps it with the tag for the operand statistics.
     */
    ValueType type = ValueType::Long;
    /**
     * True when the write could not complete this cycle (no free Long
     * entry); the writeback must retry. Never set by the baseline.
     */
    bool stalled = false;
};

/** Per-type access counters shared by all models. */
struct AccessCounts
{
    u64 reads[3] = {0, 0, 0};
    u64 writes[3] = {0, 0, 0};
    /** WR1 short-file probe reads (content-aware only). */
    u64 shortProbeReads = 0;

    u64 totalReads() const { return reads[0] + reads[1] + reads[2]; }
    u64 totalWrites() const { return writes[0] + writes[1] + writes[2]; }

    /** Field-wise sum and difference. */
    AccessCounts &
    operator+=(const AccessCounts &o)
    {
        for (unsigned t = 0; t < 3; ++t) {
            reads[t] += o.reads[t];
            writes[t] += o.writes[t];
        }
        shortProbeReads += o.shortProbeReads;
        return *this;
    }
    AccessCounts &
    operator-=(const AccessCounts &o)
    {
        for (unsigned t = 0; t < 3; ++t) {
            reads[t] -= o.reads[t];
            writes[t] -= o.writes[t];
        }
        shortProbeReads -= o.shortProbeReads;
        return *this;
    }
};

/**
 * Integer physical register file model. Tags are dense indices in
 * [0, entries). The pipeline guarantees: write(tag) before any
 * read(tag); release(tag) only after the tag's value is dead.
 */
class RegisterFile
{
  public:
    RegisterFile(std::string name, unsigned entries);
    virtual ~RegisterFile() = default;

    unsigned entries() const { return entries_; }
    const std::string &name() const { return name_; }

    // --- data path ---

    /** Read the value held by @p tag (counts one access). */
    virtual ReadAccess read(u32 tag) = 0;

    /**
     * Write @p value into @p tag at writeback on behalf of hardware
     * thread @p tid (counts one access). May stall (content-aware
     * Long allocation).
     */
    WriteAccess write(u32 tag, u64 value, unsigned tid = 0)
    {
        return doWrite(tag, value, tid, false);
    }

    /**
     * Complete a write that must not stall (§3.2 pseudo-deadlock
     * recovery at the ROB head). Models without a stalling write path
     * treat this as a plain write.
     */
    WriteAccess writeForced(u32 tag, u64 value, unsigned tid = 0)
    {
        return doWrite(tag, value, tid, true);
    }

    /** Tag freed (previous mapping released at commit). */
    virtual void release(u32 tag) = 0;

    /**
     * A load/store of thread @p tid computed effective address
     * @p addr (executed in parallel with the ALU stage); used by the
     * content-aware model to populate the Short file. No-op for the
     * baseline.
     */
    void noteAddress(u64 addr, unsigned tid = 0) { doNoteAddress(addr, tid); }

    // --- core-facing policy ---

    /**
     * Should the core stall issue of integer-writing instructions
     * (free-Long threshold, §3.2)? Read after commit and writeback
     * have run in the cycle.
     */
    virtual bool shouldStallIssue() const { return false; }

    /** Called once per ROB interval (ROB-size commits). */
    virtual void onRobInterval() {}

    /**
     * Read ports built into the array and shared by every issuing
     * instruction each cycle (Los port reduction); the core refuses
     * issue past it. 0: no pool beyond the core's own ports.
     */
    unsigned readPortPool() const { return readPortPool_; }

    /**
     * True when the types write() returns are a content taxonomy the
     * model stores by (the core tallies the operand-mix and clustering
     * statistics from them); false when they exist only for
     * reporting parity.
     */
    bool hasValueTaxonomy() const { return valueTaxonomy_; }

    // --- snapshots (no access counted) ---

    /** One tag's current contents. */
    struct Peek
    {
        /** The tag holds a written, live value. */
        bool live = false;
        ValueType type = ValueType::Long;
        u64 value = 0;
        /**
         * Sub-structure index of the tag's entry (Short or Long file
         * index; 0 for models without sub-structures).
         */
        unsigned subIndex = 0;
    };
    virtual Peek peek(u32 tag) const = 0;

    /**
     * Per-thread Short-file sharing accounting (content-aware SMT).
     * shortHits[t] counts Short-typed writebacks by thread t;
     * crossShortHits[t] counts the subset that hit a group first
     * allocated by a *different* thread (a cross-thread share). Empty
     * vectors for models without a Short file.
     */
    struct SharingStats
    {
        std::vector<u64> shortHits;
        std::vector<u64> crossShortHits;

        u64 totalShortHits() const
        {
            u64 sum = 0;
            for (u64 v : shortHits)
                sum += v;
            return sum;
        }
        u64 totalCrossShortHits() const
        {
            u64 sum = 0;
            for (u64 v : crossShortHits)
                sum += v;
            return sum;
        }
    };

    /** Model counters since construction. */
    struct Stats
    {
        /** Internal allocation writes surfaced as short_file_writes. */
        u64 shortAllocWrites = 0;
        SharingStats sharing;
    };
    virtual Stats stats() const { return {}; }

    /** Live sub-structure occupancy sampled once per cycle. */
    struct Occupancy
    {
        unsigned liveLong = 0;
        unsigned liveShort = 0;
    };
    virtual Occupancy occupancy() const { return {}; }

    // --- verification ---

    /**
     * Structural self-check (debug/testing): empty string when every
     * model invariant holds, else a description of the first
     * violation. Models without internal structure have nothing to
     * violate.
     */
    virtual std::string checkInvariants() const { return ""; }

    const AccessCounts &accessCounts() const { return counts_; }

  protected:
    /** The write path behind write() and writeForced(). */
    virtual WriteAccess doWrite(u32 tag, u64 value, unsigned tid,
                                bool forced) = 0;
    /** The hook behind noteAddress(). */
    virtual void doNoteAddress(u64 addr, unsigned tid)
    {
        (void)addr;
        (void)tid;
    }

    void countRead(ValueType type)
    {
        ++counts_.reads[static_cast<unsigned>(type)];
    }
    void countWrite(ValueType type)
    {
        ++counts_.writes[static_cast<unsigned>(type)];
    }

    std::string name_;
    unsigned entries_;
    /** Construction-time traits (readPortPool(), hasValueTaxonomy()). */
    unsigned readPortPool_ = 0;
    bool valueTaxonomy_ = false;
    AccessCounts counts_;
};

} // namespace carf::regfile

#endif // CARF_REGFILE_REGFILE_HH
