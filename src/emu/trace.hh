/**
 * @file
 * Dynamic instruction records and the streaming trace interface that
 * connects functional execution (or the synthetic generator) to the
 * timing simulator and the value oracle.
 */

#ifndef CARF_EMU_TRACE_HH
#define CARF_EMU_TRACE_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "isa/opcode.hh"

namespace carf::emu
{

/**
 * One dynamic instruction with its resolved operand and result
 * values. The timing model replays these in program order; values
 * flow through the modelled physical register files so the
 * content-aware classification sees exactly what the machine would.
 */
struct DynOp
{
    InstSeqNum seq = 0;
    /** Static instruction index (word-addressed pc). */
    u64 pc = 0;
    isa::Opcode op = isa::Opcode::NOP;
    u8 rd = 0;
    u8 rs1 = 0;
    u8 rs2 = 0;
    /** Resolved source operand values (0 when the operand is unused). */
    u64 rs1Value = 0;
    u64 rs2Value = 0;
    /** Result value, when the op writes a register. */
    u64 rdValue = 0;
    /** Effective address for loads/stores. */
    Addr effAddr = 0;
    /** Conditional-branch outcome; jumps are always taken. */
    bool taken = false;
    /** pc of the next dynamic instruction (the branch target). */
    u64 nextPc = 0;

    const isa::OpInfo &info() const { return isa::opInfo(op); }
    bool isLoad() const { return isa::isLoad(op); }
    bool isStore() const { return isa::isStore(op); }
    bool isBranch() const { return isa::isBranch(op); }
    bool writesIntReg() const
    {
        return isa::writesIntReg(op) && rd != 0;
    }
    bool writesFpReg() const { return isa::writesFpReg(op); }
    bool writesReg() const { return writesIntReg() || writesFpReg(); }
};

/**
 * Pull-based dynamic instruction source. The emulator and the
 * synthetic generator both implement this; the Simulator consumes it.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next dynamic instruction in program order.
     * @retval false when the stream is exhausted (program halted or
     *         instruction budget reached).
     */
    virtual bool next(DynOp &out) = 0;

    /**
     * Produce the next out.size() records into @p out, in place: the
     * block path for consumers that take records in bulk. The records
     * are the ones next() would have produced.
     * @return the records written; fewer than out.size() only when
     *         next() would have returned false.
     */
    virtual size_t fill(std::span<DynOp> out);

    /** Human-readable source name for reports. */
    virtual std::string name() const = 0;
};

/**
 * Streaming delivery with a host-time meter: a clock around the inner
 * source's fill(). next() pulls blockRecords records at a time into
 * its own block and hands them out one by one; fill() first hands out
 * what next() read ahead, then fills the rest of the caller's span
 * straight from the inner source. The clock is read once before and
 * once after each inner fill, so the meter costs two clock reads per
 * block rather than two per record, and the read-ahead is invisible
 * downstream: the inner source is deterministic and keeps its own
 * budget cap.
 */
class MeteredSource final : public TraceSource
{
  public:
    /** Records per fill. */
    static constexpr size_t blockRecords = 1024;

    explicit MeteredSource(std::unique_ptr<TraceSource> inner);

    bool
    next(DynOp &out) override
    {
        if (pos_ == filled_ && !refill())
            return false;
        out = block_[pos_++];
        return true;
    }

    size_t fill(std::span<DynOp> out) override;

    std::string name() const override { return inner_->name(); }

    /** Host seconds spent inside the inner source so far. */
    double seconds() const { return seconds_; }

  private:
    /** Fill the block from the inner source; false once it is dry. */
    bool refill();
    /** One clocked inner fill into @p out; marks the source drained
     *  when it comes back short. */
    size_t timedFill(std::span<DynOp> out);

    std::unique_ptr<TraceSource> inner_;
    std::vector<DynOp> block_;
    size_t filled_ = 0;
    size_t pos_ = 0;
    bool drained_ = false;
    double seconds_ = 0.0;
};

} // namespace carf::emu

#endif // CARF_EMU_TRACE_HH
