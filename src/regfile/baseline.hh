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
 *
 * The same class is the read-port-count-reduction file (after Los,
 * arXiv:2502.00147), registered as "port-reduction": a flat file whose
 * array exposes only a small pool of shared read ports, far fewer than
 * the issue width could demand in a peak cycle. The scheme banks on
 * operand bypassing: most source operands arrive over the forwarding
 * network and never touch the file. The file declares the pool as its
 * readPortPool() trait and the core arbitrates it, charging ports only
 * for operands sourced from the file (OperandSource::RegFile) and
 * refusing issue of instructions whose residual file reads exceed what
 * is left of the cycle's pool; the instruction retries next cycle. The
 * energy/area/delay win is pure geometry, in the registry entry: the
 * array is built with sharedReadPorts read ports instead of the core's
 * full complement, and port count enters the Rixner model
 * quadratically in area.
 */

#ifndef CARF_REGFILE_BASELINE_HH
#define CARF_REGFILE_BASELINE_HH

#include "regfile/regfile.hh"

namespace carf::regfile
{

/** Configuration of the port-reduction organization. */
struct PortReductionParams
{
    /**
     * Read ports actually built into the array and shared by all
     * issuing instructions each cycle. Must be >= 2: a two-source
     * consumer of non-bypassable operands needs both in one cycle.
     */
    unsigned sharedReadPorts = 4;

    void validate() const;
};

/**
 * Flat 64-bit-per-entry register file. The data path is final, so
 * calls through a BaselineRegFile (the core's FP file) bind statically.
 */
class BaselineRegFile : public RegisterFile
{
  public:
    /**
     * @param read_port_pool shared read ports the core arbitrates
     *        (readPortPool()); 0 for a fully ported file
     */
    BaselineRegFile(std::string name, unsigned entries,
                    unsigned read_port_pool = 0);

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
