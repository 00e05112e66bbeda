/**
 * @file
 * Conventional monolithic N x 64-bit physical register file, used for
 * both the paper's "unlimited" (160 entries, 16R/8W) and "baseline"
 * (112 entries, 8R/6W) configurations; port counts live in the core
 * parameters, not here.
 *
 * Values are still *classified* (without a Short file, so only
 * simple/long) purely for reporting parity; the classification has no
 * behavioural effect in this model.
 */

#ifndef CARF_REGFILE_BASELINE_HH
#define CARF_REGFILE_BASELINE_HH

#include "regfile/regfile.hh"

namespace carf::regfile
{

/**
 * Flat 64-bit-per-entry register file. The data path is final, so
 * calls through a BaselineRegFile (the core's FP file) bind statically.
 */
class BaselineRegFile : public RegisterFile
{
  public:
    BaselineRegFile(std::string name, unsigned entries);

    void reset() override;
    ReadAccess read(u32 tag) final;
    void release(u32 tag) final;
    Peek peek(u32 tag) const final;

  protected:
    WriteAccess doWrite(u32 tag, u64 value, unsigned tid,
                        bool forced) final;

  private:
    struct Entry
    {
        bool live = false;
        u64 value = 0;
    };

    std::vector<Entry> file_;
};

} // namespace carf::regfile

#endif // CARF_REGFILE_BASELINE_HH
