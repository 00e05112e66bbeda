/**
 * @file
 * In-memory dynamic trace storage that keeps only what the static
 * program, program order and each static instruction's recent past do
 * not already determine, plus a replay cursor that derives the rest.
 *
 * A TraceBuffer captures a workload's dynamic instruction stream once
 * and replays it any number of times; replay never touches the
 * functional emulator. Each record keeps one control byte. Everything
 * else is derived during replay by a Cursor that carries the
 * architectural registers, using the emulator's own rules:
 *
 *  - seq is the record's position plus the stream's base sequence
 *    number (the emulator numbers ops densely from 0);
 *  - rs1Value/rs2Value are the current contents of the source
 *    registers (class from opInfo; x0 and unused operands read 0),
 *    and every record's rdValue retires into its destination;
 *  - pc is the previous record's nextPc, and nextPc is pc+1 unless
 *    the record is taken.
 *
 * The rest is predicted per static instruction. The encoder and every
 * cursor run the same Predictor, a fixed-size table direct-mapped on
 * pc with a pc tag, and update it identically after each record:
 *
 *  - op/rd/rs1/rs2 are the pc's last decode;
 *  - effAddr is rs1Value plus the pc's last displacement;
 *  - a taken record's nextPc is the pc's last taken target;
 *  - rdValue is the pc's last value, last value plus stride, or
 *    rs1Value plus the last rdValue - rs1Value delta, as a 2-bit code
 *    in the control byte says.
 *
 * Only mispredicted fields are stored, in record order, in compact
 * arrays: decodes, one u64 array for rdValues and effAddrs, and u32
 * taken targets. Aliasing in the table costs bytes, never exactness.
 * A record that breaks a derivation (a source value that is not the
 * register's content, an effAddr on a non-memory op, a non-taken
 * nextPc other than pc+1, ...) cannot come from the emulator, so
 * build() panics on it. Emulator streams encode in 1-7 B per record
 * (more where the table aliases) against the 72-byte DynOp.
 */

#ifndef CARF_EMU_TRACE_BUFFER_HH
#define CARF_EMU_TRACE_BUFFER_HH

#include <array>
#include <memory>
#include <vector>

#include "emu/trace.hh"

namespace carf::emu
{

/** One workload's dynamic trace, stored once, replayed many times. */
class TraceBuffer
{
  public:
    /** Opcode and register indices of a record. */
    struct Decode
    {
        u8 op;
        u8 rd;
        u8 rs1;
        u8 rs2;

        bool operator==(const Decode &) const = default;
    };

    /**
     * Drain @p source (up to @p max_insts records) into a new buffer.
     *
     * @param source a program-order DynOp stream the derivations hold
     *        for: the emulator's, or another cursor's
     * @param name workload name reported by replay cursors
     * @param max_insts the instruction budget the buffer was built
     *        for; recorded so callers can tell a budget-capped buffer
     *        from one that ran to program halt
     * @param byte_budget most resident bytes the buffer may take. The
     *        build pulls blocks of MeteredSource::blockRecords records
     *        through TraceSource::fill() and checks its size after
     *        every full block and once at the end.
     * @retval nullptr when the encoding passes @p byte_budget; the
     *         build then stops within one block of the budget.
     */
    static std::unique_ptr<TraceBuffer> build(TraceSource &source,
                                              std::string name,
                                              u64 max_insts,
                                              u64 byte_budget = ~u64{0});

    const std::string &name() const { return name_; }
    u64 size() const { return control_.size(); }
    bool empty() const { return control_.empty(); }

    /** Budget the buffer was built with (see build()). */
    u64 requestedBudget() const { return requestedBudget_; }
    /**
     * True when the source ran dry before the budget: the program
     * halted, so this buffer also serves any larger budget.
     */
    bool sawHalt() const { return size() < requestedBudget_; }

    /** Sequence number of the first record. */
    u64 baseSeq() const { return baseSeq_; }

    /**
     * Entries of the per-pc predictor: a program with more static
     * instructions than this (fetch_wall) aliases.
     */
    static constexpr u64 kPredictorEntries = 4096;

    /** Resident bytes of the encoded trace (capacity, not size). */
    u64 memoryBytes() const;

    /** Per-field byte breakdown, for the trace-dump tool. */
    struct FieldSizes
    {
        u64 control; //!< one control byte per record
        u64 decode;  //!< opcode + rd/rs1/rs2 of decode misses
        u64 values;  //!< mispredicted rdValues and effAddrs, one
                     //!< array in record order
        u64 targets; //!< u32 nextPc of mispredicted taken records
        u64 total() const { return control + decode + values + targets; }
    };
    FieldSizes fieldSizes() const;

    /** How often one predicted field was right, over the records that
     *  have the field. */
    struct FieldHits
    {
        u64 records = 0;
        u64 hits = 0;
    };

    /**
     * Predictor hit counts of the encoding, per field. decode counts
     * every record, rdValue register writers, effAddr loads and
     * stores, and target taken records.
     */
    struct PredictionStats
    {
        FieldHits decode;
        FieldHits effAddr;
        FieldHits target;
        FieldHits rdValue;
        /** rdValue hits by code: last value, stride, rs1Value+delta. */
        std::array<u64, 3> rdValueByCode{};
    };
    const PredictionStats &predictionStats() const { return stats_; }

    /**
     * Architectural registers as the derivation sees them: int 0-31,
     * fp 32-63, slot 64, which always reads 0 for an unused operand,
     * and slot 65, which takes the result of a record that writes
     * nothing.
     */
    using Registers = std::array<u64, 2 * isa::numArchRegs + 2>;

  private:
    /**
     * Register slots of a decode, from its opcode's register classes:
     * the sources' slots (the zero slot when unused) and the
     * destination's (the discard slot when the record writes no
     * register), plus whether the op accesses memory.
     */
    struct Slots
    {
        u8 src1;
        u8 src2;
        u8 dst;
        bool mem;
    };

    /**
     * Per-static-instruction history both the encoder and the cursor
     * keep: the pc's last decode and its slots, its last displacement
     * and taken target, and its rdValue predictions. One cache line.
     */
    struct alignas(64) PredictorEntry
    {
        /**
         * By rdValue code: unused ("stored"), the last value, the
         * last value plus the last stride, and the last rdValue -
         * rs1Value delta, to which replay adds rs1Value.
         */
        std::array<u64, 4> value;
        u64 disp;
        u32 tag;
        u32 target;
        Decode decode;
        Slots slots;
    };

    /** Direct-mapped on pc; a tag miss restarts the entry cold. */
    class Predictor
    {
      public:
        Predictor();

        /** The entry of @p pc, restarted cold on a tag miss. */
        PredictorEntry &lookup(u64 pc);

        /** Give @p e a new decode (a decode misprediction). */
        static void redecode(PredictorEntry &e, Decode d);

        /**
         * Record one record's values in its entry; @p target is its
         * taken nextPc, or the entry's target when it is not taken.
         */
        static void update(PredictorEntry &e, u64 rs1_value,
                           u64 rd_value, u64 eff_addr, u64 target);

      private:
        /** An entry as lookup() restarts it, but for the tag. */
        static const PredictorEntry kCold;

        std::vector<PredictorEntry> table_;
    };

  public:
    /**
     * Replay: a TraceSource view over a buffer. Cheap to construct;
     * many cursors may read one buffer concurrently (the buffer is
     * immutable after build, and each cursor carries its own state).
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
        size_t fill(std::span<DynOp> out) override;
        std::string name() const override { return buffer_->name(); }

      private:
        /** next() without the virtual call: the loop body of fill(). */
        bool derive(DynOp &out);

        const TraceBuffer *buffer_;
        u64 limit_;
        u64 pos_ = 0;
        // Derivation state: the registers, the next record's pc, the
        // predictor and the read position in each compact array.
        Registers regs_{};
        u64 pc_ = 0;
        Predictor predictor_;
        u64 decodePos_ = 0;
        u64 valuePos_ = 0;
        u64 targetPos_ = 0;
    };

  private:
    class Encoder;

    TraceBuffer(std::string name, u64 requested_budget);

    /** Bytes the buffer takes once its arrays are shrunk to size. */
    u64 encodedBytes() const;

    std::string name_;
    u64 requestedBudget_ = 0;
    u64 baseSeq_ = 0;
    u64 firstPc_ = 0;
    PredictionStats stats_;

    /** One control byte per record (see trace_buffer.cc). */
    std::vector<u8> control_;

    // Compact fields, one entry per record that needs one.
    std::vector<Decode> decode_;
    std::vector<u64> values_;
    std::vector<u32> targets_;
};

} // namespace carf::emu

#endif // CARF_EMU_TRACE_BUFFER_HH
