/**
 * @file
 * The content-aware integer register file (paper §3).
 *
 * An N-entry Simple file (one entry per physical tag: 2-bit RD field
 * plus a d+n-bit value field), an M=2^n-entry Short file holding the
 * shared high-order bits of short value groups, and a K-entry Long
 * file for values that are neither simple nor short. Reads
 * reconstruct the 64-bit value from the sub-file fields — the model
 * stores no shadow copy of the full value, so the bit plumbing is
 * exercised for real.
 */

#ifndef CARF_REGFILE_CONTENT_AWARE_HH
#define CARF_REGFILE_CONTENT_AWARE_HH

#include "regfile/regfile.hh"

namespace carf::regfile
{

/** Configuration of the content-aware organization. */
struct ContentAwareParams
{
    SimilarityParams sim;
    /** Long file entries (K). */
    unsigned longEntries = 48;
    /**
     * Stall issue of integer-writing instructions when the number of
     * free Long entries drops to this threshold (§3.2 recommends the
     * issue width).
     */
    unsigned issueStallThreshold = 8;
    /** Ablation: fully-associative Short file instead of indexed. */
    bool associativeShort = false;
    /**
     * Ablation: try to allocate a Short entry for *every* integer
     * result instead of only load/store addresses (the paper reports
     * this thrashes the Short file).
     */
    bool allocShortOnAnyResult = false;

    /** Pointer width into the Long file (m = ceil(log2 K)). */
    unsigned longPointerBits() const;
    /** Width of a Long file entry: 64-d-n+m. */
    unsigned longEntryBits() const;

    void validate() const;
};

/** Three-sub-file register file with content-typed entries. */
class ContentAwareRegFile : public RegisterFile
{
  public:
    /**
     * @param threads hardware threads sharing the file (sizes the
     *        per-thread Short sharing counters)
     */
    ContentAwareRegFile(std::string name, unsigned entries,
                        const ContentAwareParams &params,
                        unsigned threads = 1);

    ReadAccess read(u32 tag) override;
    void release(u32 tag) override;
    bool shouldStallIssue() const override;
    void onRobInterval() override;
    Peek peek(u32 tag) const override;

    unsigned freeLongEntries() const
    {
        return static_cast<unsigned>(freeLong_.size());
    }
    /** Tags currently live with a Long-typed value (overflow included). */
    unsigned liveLongEntries() const;
    /**
     * Emergency Long entries grown by §3.2 pseudo-deadlock recovery.
     * They retire permanently on release, so this only ever grows.
     */
    unsigned overflowLongEntries() const
    {
        return static_cast<unsigned>(longFile_.size()) -
               params_.longEntries;
    }
    unsigned liveShortEntries() const { return shortFile_.liveEntries(); }
    const ContentAwareParams &params() const { return params_; }
    const ShortFile &shortFile() const { return shortFile_; }

    Stats stats() const override;
    Occupancy occupancy() const override
    {
        return {params_.longEntries - freeLongEntries(),
                liveShortEntries()};
    }

    /**
     * Structural self-check (debug/testing): empty string when every
     * invariant holds, else a description of the first violation.
     *
     * Checked invariants:
     *  - ShortFile::checkInvariants() on the embedded Short file;
     *  - every live Short-typed tag points at a valid Short slot, and
     *    each slot's reference count equals the number of live tags
     *    pointing at it;
     *  - live Long-typed tags hold unique, in-bounds Long indices that
     *    are absent from the free list;
     *  - the free list holds unique real (non-overflow) indices, and
     *    free + live real Long entries account for exactly K;
     *  - every value field fits its configured bit width.
     */
    std::string checkInvariants() const override;

    /**
     * Fault injection for harness self-tests ONLY: leak a reference to
     * the Short slot keyed by @p selector so a test can prove the
     * invariant checks catch it. Never call from model code.
     */
    void debugInjectFault(u64 selector)
    {
        shortFile_.addRef(static_cast<unsigned>(
            selector % params_.sim.shortEntries()));
    }

  protected:
    /**
     * The write path. A @p forced write is the §3.2 pseudo-deadlock
     * recovery: it completes a stalled Long write by allocating from
     * an emergency overflow pool. The core forces the write when the
     * ROB head cannot write back for lack of a free Long entry and no
     * commit can make progress.
     */
    WriteAccess doWrite(u32 tag, u64 value, unsigned tid,
                        bool forced) override;
    void doNoteAddress(u64 addr, unsigned tid) override;

  private:
    struct Entry
    {
        bool live = false;
        ValueType type = ValueType::Simple;
        /** Low d+n bits for simple/short; low d+n-m bits for long. */
        u64 valueField = 0;
        /** Short file index (short) or Long file index (long). */
        unsigned subIndex = 0;
    };

    u64 reconstruct(const Entry &entry) const;
    /** The thread a write or placement is attributed to. */
    unsigned thread(unsigned tid) const { return tid < threads_ ? tid : 0; }

    ContentAwareParams params_;
    ShortFile shortFile_;
    std::vector<Entry> file_;
    /** Long entry values, indexed by long index (may grow on recovery). */
    std::vector<u64> longFile_;
    std::vector<u32> freeLong_;

    /** SMT sharing accounting over the construction-time threads. */
    unsigned threads_;
    /** Thread whose allocation placed each slot's current group. */
    std::vector<unsigned> shortOwner_;
    SharingStats sharing_;
};

} // namespace carf::regfile

#endif // CARF_REGFILE_CONTENT_AWARE_HH
