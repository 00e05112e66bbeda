/**
 * @file
 * Functional emulator: executes a Program and streams DynOp records.
 *
 * Integer register 0 is hardwired to zero. Floating-point registers
 * hold IEEE-754 doubles, stored as raw 64-bit patterns so the value
 * oracle can inspect their bits uniformly.
 */

#ifndef CARF_EMU_EMULATOR_HH
#define CARF_EMU_EMULATOR_HH

#include <array>
#include <string>

#include "emu/memory_image.hh"
#include "emu/trace.hh"
#include "isa/instruction.hh"

namespace carf::emu
{

/** Architectural state + program-order executor. */
class Emulator : public TraceSource
{
  public:
    /**
     * @param program assembled program (owned; data segments are
     *        preloaded)
     * @param name workload name for reports
     * @param max_insts hard cap on emitted dynamic instructions; the
     *        stream ends at the cap even if the program has not halted
     */
    Emulator(isa::Program program, std::string name,
             u64 max_insts = ~u64{0});

    bool next(DynOp &out) override;
    size_t fill(std::span<DynOp> out) override;
    std::string name() const override { return name_; }

    /** True once HALT executed or the budget is exhausted. */
    bool halted() const { return halted_; }
    u64 executedInsts() const { return executed_; }

    /** Architectural register access (testing / verification). */
    u64 intReg(unsigned idx) const { return intRegs_.at(idx); }
    u64 fpRegBits(unsigned idx) const { return fpRegs_.at(idx); }
    double fpReg(unsigned idx) const;

    MemoryImage &memory() { return memory_; }
    const MemoryImage &memory() const { return memory_; }

  private:
    /** next() without the virtual call: the loop body of fill(). */
    bool emit(DynOp &out);

    /** Execute the instruction at pc_, writing every field of @p out. */
    void step(DynOp &out);

    void setIntReg(unsigned idx, u64 value);

    isa::Program program_;
    std::string name_;
    u64 maxInsts_;
    MemoryImage memory_;
    std::array<u64, isa::numArchRegs> intRegs_{};
    std::array<u64, isa::numArchRegs> fpRegs_{};
    u64 pc_ = 0;
    u64 executed_ = 0;
    bool halted_ = false;
};

} // namespace carf::emu

#endif // CARF_EMU_EMULATOR_HH
