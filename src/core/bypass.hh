/**
 * @file
 * Bypass network accounting (paper Table 2).
 *
 * The timing rule lives in the pipeline (a result is forwardable for
 * `window` cycles after completion); this helper centralises the
 * decision and the operand-source statistics.
 */

#ifndef CARF_CORE_BYPASS_HH
#define CARF_CORE_BYPASS_HH

#include "common/types.hh"

namespace carf::core
{

/** Where a source operand came from. */
enum class OperandSource : u8
{
    /** Hardwired zero register or immediate: no access at all. */
    None,
    /** Forwarded from a bypass level. */
    Bypass,
    /** Read from the register file. */
    RegFile,
};

/** Counts operand sourcing decisions, split by register class. */
class BypassStats
{
  public:
    void record(OperandSource source, bool is_fp);

    u64 bypassed(bool is_fp) const { return bypassed_[is_fp]; }
    u64 regFileReads(bool is_fp) const { return regFile_[is_fp]; }

    u64 totalBypassed() const { return bypassed_[0] + bypassed_[1]; }
    u64 totalRegFile() const { return regFile_[0] + regFile_[1]; }

    BypassStats &
    operator+=(const BypassStats &other)
    {
        for (unsigned c = 0; c < 2; ++c) {
            bypassed_[c] += other.bypassed_[c];
            regFile_[c] += other.regFile_[c];
        }
        return *this;
    }

    /** Fraction of register operands served by bypass (Table 2). */
    double bypassFraction() const;

    /**
     * Overwrite the counters wholesale — result-store deserialization
     * only; record() is the accounting path.
     */
    void
    restore(u64 bypassed_int, u64 bypassed_fp, u64 regfile_int,
            u64 regfile_fp)
    {
        bypassed_[0] = bypassed_int;
        bypassed_[1] = bypassed_fp;
        regFile_[0] = regfile_int;
        regFile_[1] = regfile_fp;
    }

  private:
    u64 bypassed_[2] = {0, 0};
    u64 regFile_[2] = {0, 0};
};

/**
 * Decide how an operand executing at cycle @p exec_cycle is sourced.
 *
 * @param complete_cycle producer's completion (first forwardable)
 * @param window bypass depth in cycles
 * @pre exec_cycle >= complete_cycle (the scheduler guarantees it)
 */
inline OperandSource
operandSource(Cycle exec_cycle, Cycle complete_cycle, unsigned window)
{
    return exec_cycle < complete_cycle + window ? OperandSource::Bypass
                                                : OperandSource::RegFile;
}

} // namespace carf::core

#endif // CARF_CORE_BYPASS_HH
