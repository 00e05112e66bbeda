/**
 * @file
 * Analytic multi-ported register file area/delay/energy model in the
 * style of Rixner et al., "Register Organization for Media
 * Processing" (HPCA 2000), which the paper uses for its §5 results.
 *
 * The model captures the first-order physics of a multi-ported SRAM
 * array:
 *  - each port adds a wordline (horizontal track) and a bitline pair
 *    (vertical tracks) to every cell, so cell width and height grow
 *    linearly with the port count P, and cell area grows as ~P^2;
 *  - a read drives one wordline (length ∝ W·cellWidth) and W bitline
 *    pairs (length ∝ R·cellHeight);
 *  - the decoder contributes ∝ log2(R) delay and energy.
 *
 * Constants are calibrated (see TechParams) so the paper's baseline
 * file (112 x 64b, 8R/6W) lands at its reported 48.8% per-access
 * energy relative to the unlimited file (160 x 64b, 16R/8W). All
 * paper results are relative, so only ratios matter; nominal units
 * are arbitrary-but-consistent (fJ / um^2 / ps scale).
 */

#ifndef CARF_ENERGY_RIXNER_HH
#define CARF_ENERGY_RIXNER_HH

#include <string>

#include "common/types.hh"

namespace carf::energy
{

/** Geometry of one storage bank (sub-file) of a register file. */
struct BankGeometry
{
    /** The bank's name in per-sub-file reports ("simple", "file"). */
    std::string label;
    unsigned entries = 0;
    unsigned widthBits = 0;
    unsigned readPorts = 0;
    unsigned writePorts = 0;

    unsigned totalPorts() const { return readPorts + writePorts; }
};

/**
 * One term of a file's energy accounting: @p accesses read or write
 * accesses to @p bank. Terms are ORDERED: a run's energy is their sum
 * left to right, so the printed totals are bit-stable.
 */
struct EnergyTerm
{
    BankGeometry bank;
    u64 accesses = 0;
    bool isWrite = false;
};

/** Technology/calibration constants of the analytic model. */
struct TechParams
{
    /** Cell width/height base in port-pitch units (tracks occupied by
     *  the storage cell itself, before per-port wiring). Calibrated so
     *  the baseline/unlimited per-access energy ratio is ~0.488. */
    double cellBaseTracks = 7.0;
    /** Track pitch contribution per port (width and height). */
    double trackPerPort = 1.0;

    /** Energy coefficients (arbitrary fJ-scale units). */
    double decodeEnergyPerBit = 6.0;    //!< × log2(entries)
    double wordlineEnergyPerCell = 0.05; //!< × width × cellWidth
    double bitlineEnergyCoeff = 0.0025; //!< × width^1.5 × entries × cellH
    double senseEnergyPerBit = 1.2;     //!< × width
    /** Write drivers swing full rail: relative cost vs read bitline. */
    double writeFactor = 1.1;

    /** Delay coefficients (arbitrary ps-scale units). */
    double decodeDelayPerBit = 9.0;    //!< × log2(entries)
    double wordlineDelayCoeff = 6.0;   //!< × sqrt(width × cellWidth)
    double bitlineDelayCoeff = 6.0;    //!< × sqrt(entries × cellHeight)
    double senseDelay = 30.0;          //!< constant

    /** Area coefficients (arbitrary um^2-scale units per track^2). */
    double areaPerTrackSq = 1.0;
    /** Decoder/periphery overhead fraction of the cell array. */
    double peripheryOverhead = 0.10;
    /** Per-file decoder/control block area (favors fewer files). */
    double fixedAreaOverhead = 120000.0;
};

/** Analytic area / per-access energy / access time evaluator. */
class RixnerModel
{
  public:
    explicit RixnerModel(const TechParams &tech = {});

    /** Cell array + periphery area. */
    double area(const BankGeometry &g) const;
    /** Energy of one read access through one read port. */
    double readEnergy(const BankGeometry &g) const;
    /** Energy of one write access through one write port. */
    double writeEnergy(const BankGeometry &g) const;
    /** Decoder + wordline + bitline + sense critical path. */
    double accessTime(const BankGeometry &g) const;

    const TechParams &tech() const { return tech_; }

    /** Cell dimensions in tracks (exposed for tests). */
    double cellWidthTracks(const BankGeometry &g) const;
    double cellHeightTracks(const BankGeometry &g) const;

  private:
    TechParams tech_;
};

} // namespace carf::energy

#endif // CARF_ENERGY_RIXNER_HH
