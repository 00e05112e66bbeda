#include "energy/rixner.hh"

#include <cmath>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace carf::energy
{

RixnerModel::RixnerModel(const TechParams &tech) : tech_(tech)
{
}

double
RixnerModel::cellWidthTracks(const BankGeometry &g) const
{
    return tech_.cellBaseTracks + tech_.trackPerPort * g.totalPorts();
}

double
RixnerModel::cellHeightTracks(const BankGeometry &g) const
{
    return tech_.cellBaseTracks + tech_.trackPerPort * g.totalPorts();
}

double
RixnerModel::area(const BankGeometry &g) const
{
    if (g.entries == 0 || g.widthBits == 0)
        fatal("RixnerModel::area: empty geometry");
    double cell = cellWidthTracks(g) * cellHeightTracks(g) *
                  tech_.areaPerTrackSq;
    double array = cell * g.entries * g.widthBits;
    return array * (1.0 + tech_.peripheryOverhead) +
           tech_.fixedAreaOverhead;
}

double
RixnerModel::readEnergy(const BankGeometry &g) const
{
    double log_r = g.entries > 1 ? log2Ceil(g.entries) : 1.0;
    double e_decode = tech_.decodeEnergyPerBit * log_r;
    double e_wordline =
        tech_.wordlineEnergyPerCell * g.widthBits * cellWidthTracks(g);
    // Bitline term grows as W^1.5: wider arrays drive longer
    // wordlines whose RC forces larger drivers and overlapping
    // precharge, a superlinearity the Rixner model's wire equations
    // exhibit; the exponent is part of the calibration.
    double e_bitline = tech_.bitlineEnergyCoeff *
                       std::pow(static_cast<double>(g.widthBits), 1.5) *
                       g.entries * cellHeightTracks(g);
    double e_sense = tech_.senseEnergyPerBit * g.widthBits;
    return e_decode + e_wordline + e_bitline + e_sense;
}

double
RixnerModel::writeEnergy(const BankGeometry &g) const
{
    return readEnergy(g) * tech_.writeFactor;
}

double
RixnerModel::accessTime(const BankGeometry &g) const
{
    double log_r = g.entries > 1 ? log2Ceil(g.entries) : 1.0;
    double t_decode = tech_.decodeDelayPerBit * log_r;
    // Repeatered wires: flight time grows as sqrt(length).
    double t_wordline = tech_.wordlineDelayCoeff *
        std::sqrt(g.widthBits * cellWidthTracks(g));
    double t_bitline = tech_.bitlineDelayCoeff *
        std::sqrt(g.entries * cellHeightTracks(g));
    return t_decode + t_wordline + t_bitline + tech_.senseDelay;
}

} // namespace carf::energy
