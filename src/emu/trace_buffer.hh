/**
 * @file
 * In-memory dynamic trace storage in a compact structure-of-arrays
 * encoding, plus a zero-copy replay cursor.
 *
 * A TraceBuffer captures a workload's dynamic instruction stream once
 * and replays it any number of times; replay never touches the
 * functional emulator. The encoding splits the hot decode fields
 * (pc/opcode/register indices/branch outcome) from the cold 64-bit
 * value fields (operand values, result, effective address), and drops
 * the two derivable DynOp fields entirely:
 *
 *  - seq is the record's position plus the stream's base sequence
 *    number (the emulator numbers ops densely from 0);
 *  - nextPc of record i is pc of record i+1 — the definition of a
 *    program-order trace — so only the final record's nextPc is kept.
 *
 * That packs a 72-byte DynOp into ~41 bytes per record, and the
 * hot fields touched by fetch/decode into ~9 of them. DynOp records
 * are materialized only at the replay cursor.
 */

#ifndef CARF_EMU_TRACE_BUFFER_HH
#define CARF_EMU_TRACE_BUFFER_HH

#include <memory>
#include <vector>

#include "emu/trace.hh"

namespace carf::emu
{

/** One workload's dynamic trace, stored once, replayed many times. */
class TraceBuffer
{
  public:
    /** An empty buffer to fill via append() (see build()). */
    explicit TraceBuffer(std::string name,
                         u64 requested_budget = ~u64{0});

    /**
     * Drain @p source (up to @p max_insts records) into a new buffer.
     *
     * @param source any program-order DynOp stream (emulator, trace
     *        file reader, another cursor)
     * @param name workload name reported by replay cursors
     * @param max_insts the instruction budget the buffer was built
     *        for; recorded so callers can tell a budget-capped buffer
     *        from one that ran to program halt
     */
    static std::unique_ptr<TraceBuffer> build(TraceSource &source,
                                              std::string name,
                                              u64 max_insts);

    /** Append one record; ops must arrive in program order. */
    void append(const DynOp &op);

    const std::string &name() const { return name_; }
    u64 size() const { return pc_.size(); }
    bool empty() const { return pc_.empty(); }

    /** Budget the buffer was built with (see build()). */
    u64 requestedBudget() const { return requestedBudget_; }
    /**
     * True when the source ran dry before the budget: the program
     * halted, so this buffer also serves any larger budget.
     */
    bool sawHalt() const { return size() < requestedBudget_; }

    /** Sequence number of the first record. */
    u64 baseSeq() const { return baseSeq_; }

    /** Reconstruct record @p index into @p out. */
    void materialize(u64 index, DynOp &out) const;

    /** Resident bytes of the encoded trace (capacity, not size). */
    u64 memoryBytes() const;

    /** Per-field byte breakdown, for the trace-dump tool. */
    struct FieldSizes
    {
        u64 pc;       //!< 4 B/record program counters
        u64 decode;   //!< opcode + rd/rs1/rs2 indices
        u64 flags;    //!< bit-packed branch outcomes
        u64 values;   //!< rs1/rs2/rd value words
        u64 effAddr;  //!< effective addresses
        u64 total() const { return pc + decode + flags + values + effAddr; }
    };
    FieldSizes fieldSizes() const;

    /** Pre-size every field array for @p records appends. */
    void reserve(u64 records);

    /** Drop excess vector capacity after a build completes. */
    void shrinkToFit();

    /**
     * Zero-copy replay: a TraceSource view over a buffer. Cheap to
     * construct; many cursors may read one buffer concurrently (the
     * buffer is immutable after build). reset()/skip() let one buffer
     * back both the warm-up and the timed window of a run.
     */
    class Cursor : public TraceSource
    {
      public:
        /**
         * @param buffer replayed buffer; the caller keeps it alive
         * @param max_insts cap on replayed records — a cursor capped
         *        at N yields exactly the stream a fresh emulation with
         *        budget N would (traces are deterministic prefixes)
         */
        explicit Cursor(const TraceBuffer &buffer,
                        u64 max_insts = ~u64{0});

        bool next(DynOp &out) override;
        std::string name() const override { return buffer_->name(); }

        /** Rewind to the first record. */
        void reset() { pos_ = 0; }
        /** Advance past @p n records (clamped to the end). */
        void skip(u64 n);
        u64 position() const { return pos_; }

      private:
        const TraceBuffer *buffer_;
        u64 limit_;
        u64 pos_ = 0;
    };

  private:
    std::string name_;
    u64 requestedBudget_ = 0;
    u64 baseSeq_ = 0;
    /** nextPc of the final record (every other nextPc is derived). */
    u64 lastNextPc_ = 0;

    // Hot fields (one entry per record).
    std::vector<u32> pc_;
    std::vector<u8> op_;
    std::vector<u8> rd_;
    std::vector<u8> rs1_;
    std::vector<u8> rs2_;
    /** Branch outcomes, bit-packed 64 per word. */
    std::vector<u64> taken_;

    // Cold 64-bit value fields.
    std::vector<u64> rs1Value_;
    std::vector<u64> rs2Value_;
    std::vector<u64> rdValue_;
    std::vector<u64> effAddr_;
};

} // namespace carf::emu

#endif // CARF_EMU_TRACE_BUFFER_HH
