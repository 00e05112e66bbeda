/**
 * @file
 * Read-port-count-reduction register file (after Los,
 * arXiv:2502.00147): a conventional flat file whose array exposes
 * only a small pool of shared read ports, far fewer than the issue
 * width could demand in a peak cycle.
 *
 * The scheme banks on operand bypassing: most source operands arrive
 * over the forwarding network and never touch the file, so the
 * average read-port demand is well below the worst case. The model
 * declares the pool as its readPortPool() trait and the core
 * arbitrates it: the pipeline charges ports only for operands sourced
 * from the file (OperandSource::RegFile), which is exactly the
 * bypass-aware operand filtering the scheme requires, and refuses
 * issue of instructions whose residual file reads exceed what is left
 * of the cycle's pool. Refusals are per-cycle conflict stalls: the
 * instruction retries next cycle.
 *
 * Energy/area/delay win: the array is built with sharedReadPorts
 * read ports instead of the core's full complement, and port count
 * enters the Rixner model quadratically in area.
 */

#ifndef CARF_REGFILE_PORT_REDUCTION_HH
#define CARF_REGFILE_PORT_REDUCTION_HH

#include "regfile/baseline.hh"

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

/** Flat register file with a reduced shared read-port pool. */
class PortReductionRegFile : public BaselineRegFile
{
  public:
    PortReductionRegFile(std::string name, unsigned entries,
                         const PortReductionParams &params);

    std::vector<BankGeometry> banks() const override;
    std::string describeExtra() const override;

    const PortReductionParams &params() const { return params_; }

  private:
    PortReductionParams params_;
};

} // namespace carf::regfile

#endif // CARF_REGFILE_PORT_REDUCTION_HH
