#include "energy/report.hh"

#include <algorithm>

namespace carf::energy
{

FileCost::FileCost(const core::CoreParams &params)
    : geometry_(regfile::registry().at(params.regFileBackend).geometry),
      banks_(geometry_.banks(params.regFileParams()))
{
}

double
FileCost::area() const
{
    double area = 0.0;
    for (const BankGeometry &bank : banks_)
        area += model_.area(bank);
    return area;
}

double
FileCost::accessTime() const
{
    double worst = 0.0;
    for (const BankGeometry &bank : banks_)
        worst = std::max(worst, model_.accessTime(bank));
    return worst;
}

double
FileCost::energy(const regfile::AccessCounts &counts,
                 u64 short_alloc_writes) const
{
    double energy = 0.0;
    for (const EnergyTerm &t :
         geometry_.energyTerms(banks_, counts, short_alloc_writes)) {
        energy += t.accesses * (t.isWrite ? model_.writeEnergy(t.bank)
                                          : model_.readEnergy(t.bank));
    }
    return energy;
}

} // namespace carf::energy
