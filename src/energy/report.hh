/**
 * @file
 * The one energy/area/access-time evaluation of a register file (paper
 * §5): the banks and energy terms its backend's registry entry builds
 * from the simulated parameters, evaluated under the Rixner model. No
 * register-file model is constructed.
 */

#ifndef CARF_ENERGY_REPORT_HH
#define CARF_ENERGY_REPORT_HH

#include <vector>

#include "core/params.hh"
#include "energy/rixner.hh"
#include "regfile/registry.hh"

namespace carf::energy
{

/** Rixner evaluation of the register file one CoreParams simulates. */
class FileCost
{
  public:
    /** Fatal on an unknown backend name, like the factory. */
    explicit FileCost(const core::CoreParams &params);

    /** The storage banks, in the backend's canonical order. */
    const std::vector<BankGeometry> &banks() const { return banks_; }
    const RixnerModel &model() const { return model_; }

    /** Ordered sum of the per-bank areas. */
    double area() const;
    /** The slowest bank (sets the register read stage). */
    double accessTime() const;
    /**
     * Energy of a run with access totals @p counts and
     * @p short_alloc_writes internal allocation writes: the ordered
     * sum of the backend's energy terms.
     */
    double energy(const regfile::AccessCounts &counts,
                  u64 short_alloc_writes) const;

  private:
    RixnerModel model_;
    const regfile::Registry::Geometry &geometry_;
    std::vector<BankGeometry> banks_;
};

} // namespace carf::energy

#endif // CARF_ENERGY_REPORT_HH
