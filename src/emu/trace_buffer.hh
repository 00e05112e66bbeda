/**
 * @file
 * In-memory dynamic trace storage that keeps only what the static
 * program and program order do not already determine, plus a replay
 * cursor that derives the rest.
 *
 * A TraceBuffer captures a workload's dynamic instruction stream once
 * and replays it any number of times; replay never touches the
 * functional emulator. Each record keeps its opcode and register
 * indices (4 B), its taken bit and an "irregular" bit. Everything else
 * is derived during replay by a Cursor that carries the architectural
 * registers, using the emulator's own rules:
 *
 *  - seq is the record's position plus the stream's base sequence
 *    number (the emulator numbers ops densely from 0);
 *  - rs1Value/rs2Value are the current contents of the source
 *    registers (class from opInfo; x0 and unused operands read 0),
 *    and every record's rdValue retires into its destination;
 *  - pc is the previous record's nextPc, and nextPc is pc+1 unless
 *    the record is taken.
 *
 * What remains is stored compactly, in record order: rdValue only for
 * register-writing ops, effAddr only for loads and stores, and a u32
 * target only for taken records. A record that breaks any derivation
 * (a source value that is not the register's content, an effAddr on
 * a non-memory op, a non-taken nextPc other than pc+1, ...) is marked
 * irregular and keeps its value fields verbatim in a side array, so
 * every TraceSource round-trips exactly; it still retires its rdValue.
 * Emulator streams have no irregular records and encode in ~13 B per
 * record against the 72-byte DynOp.
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
    /** Opcode and register indices: the 4 bytes kept per record. */
    struct Decode
    {
        u8 op;
        u8 rd;
        u8 rs1;
        u8 rs2;
    };

    /**
     * Upper bound on the encoded bytes of one record of an emulator
     * stream: its Decode, an 8-byte rdValue and an 8-byte effAddr (a
     * load; a taken jump's link and 4-byte target are less, and no
     * memory op is a control transfer), and two flag bits, rounded up
     * to a byte. Emulator streams have no irregular records.
     */
    static constexpr u64 kMaxEmulatedRecordBytes =
        sizeof(Decode) + 2 * sizeof(u64) + 1;

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
    u64 size() const { return decode_.size(); }
    bool empty() const { return decode_.empty(); }

    /** Budget the buffer was built with (see build()). */
    u64 requestedBudget() const { return requestedBudget_; }
    /**
     * True when the source ran dry before the budget: the program
     * halted, so this buffer also serves any larger budget.
     */
    bool sawHalt() const { return size() < requestedBudget_; }

    /** Sequence number of the first record. */
    u64 baseSeq() const { return baseSeq_; }

    /** Records whose value fields are stored verbatim. */
    u64 irregularRecords() const { return irregular_.size(); }

    /** Resident bytes of the encoded trace (capacity, not size). */
    u64 memoryBytes() const;

    /** Per-field byte breakdown, for the trace-dump tool. */
    struct FieldSizes
    {
        u64 decode;    //!< opcode + rd/rs1/rs2 indices, 4 B/record
        u64 flags;     //!< bit-packed taken and irregular bits
        u64 values;    //!< rdValue of register writers, effAddr of
                       //!< loads and stores, one array in order
        u64 targets;   //!< u32 nextPc of taken records
        u64 irregular; //!< verbatim value fields of irregular records
        u64
        total() const
        {
            return decode + flags + values + targets + irregular;
        }
    };
    FieldSizes fieldSizes() const;

    /** Pre-size the per-record arrays for @p records appends. */
    void reserve(u64 records);

    /** Drop excess vector capacity after a build completes. */
    void shrinkToFit();

    /**
     * Architectural registers as the derivation sees them: int 0-31,
     * fp 32-63, slot 64, which always reads 0 for an unused operand,
     * and slot 65, which takes the result of a record that writes
     * nothing.
     */
    using Registers = std::array<u64, 2 * isa::numArchRegs + 2>;

    /**
     * Replay: a TraceSource view over a buffer. Cheap to construct;
     * many cursors may read one buffer concurrently (the buffer is
     * immutable after build, and each cursor carries its own state).
     * reset()/skip() let one buffer back both the warm-up and the
     * timed window of a run.
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
        void reset();
        /** Advance past @p n records (clamped to the end) by decoding. */
        void skip(u64 n);
        u64 position() const { return pos_; }

      private:
        const TraceBuffer *buffer_;
        u64 limit_;
        u64 pos_ = 0;
        // Derivation state: the registers, the next record's pc and
        // the read position in each compact array.
        Registers regs_{};
        u64 pc_ = 0;
        u64 valuePos_ = 0;
        u64 targetPos_ = 0;
        u64 irregularPos_ = 0;
    };

  private:
    /** Value fields of an irregular record, kept verbatim. */
    struct Irregular
    {
        u64 rs1Value;
        u64 rs2Value;
        u64 rdValue;
        u64 effAddr;
        u64 nextPc;
    };

    std::string name_;
    u64 requestedBudget_ = 0;
    u64 baseSeq_ = 0;
    u64 firstPc_ = 0;
    /** Registers and next pc as replay sees them after the last
     *  record; append() derives against them. */
    Registers tailRegs_{};
    u64 tailPc_ = 0;

    // Per-record fields.
    std::vector<Decode> decode_;
    /** Taken and irregular bits, two per record, 32 records a word. */
    std::vector<u64> flags_;

    // Compact fields, one entry per record that needs one.
    std::vector<u64> values_;
    std::vector<u32> targets_;
    std::vector<Irregular> irregular_;
};

} // namespace carf::emu

#endif // CARF_EMU_TRACE_BUFFER_HH
