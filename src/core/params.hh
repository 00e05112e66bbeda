/**
 * @file
 * Core configuration (paper Table 1 defaults) and the register-file
 * organization selector.
 */

#ifndef CARF_CORE_PARAMS_HH
#define CARF_CORE_PARAMS_HH

#include <string>

#include "mem/hierarchy.hh"
#include "regfile/registry.hh"

namespace carf::core
{

/** All timing parameters of the out-of-order core. */
struct CoreParams
{
    unsigned fetchWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;

    unsigned robSize = 128;
    unsigned lsqSize = 64;
    unsigned intIqSize = 32;
    unsigned fpIqSize = 32;

    unsigned physIntRegs = 112;
    unsigned physFpRegs = 128;

    unsigned intRfReadPorts = 8;
    unsigned intRfWritePorts = 6;
    unsigned fpRfReadPorts = 8;
    unsigned fpRfWritePorts = 6;

    unsigned intFuCount = 8;
    unsigned fpFuCount = 8;

    /**
     * Register read stages between issue and execute: 1 for the
     * conventional file, 2 for the content-aware file (RF1 + RF2).
     */
    unsigned regReadStages = 1;
    /**
     * Writeback stages for the integer file: 1 conventional, 2 for
     * the content-aware file (WR1 classification + WR2 write).
     */
    unsigned intWbStages = 1;
    /**
     * Extra bypass level covering the second writeback stage (§3.2;
     * optional). Only meaningful when intWbStages == 2.
     */
    bool extraBypassLevel = true;

    /** Fetch-to-rename depth (misprediction refill). */
    unsigned frontendDepth = 3;

    unsigned gshareHistoryBits = 14;
    size_t btbEntries = 2048;
    size_t rasDepth = 16;

    /**
     * Integer register-file backend, by registry name (see
     * regfile::registry()). Any registered backend is valid here; the
     * core instantiates it through the factory, so experimental
     * organizations need no pipeline changes.
     */
    std::string regFileBackend = "baseline";
    regfile::ContentAwareParams ca;
    regfile::PortReductionParams portRed;

    /** Bundle the backend-construction parameters for the factory. */
    regfile::RegFileParams regFileParams() const
    {
        regfile::RegFileParams p;
        p.entries = physIntRegs;
        p.readPorts = intRfReadPorts;
        p.writePorts = intRfWritePorts;
        p.ca = ca;
        p.portRed = portRed;
        return p;
    }

    mem::HierarchyParams memory;

    /**
     * Hardware threads sharing the core (SMT, paper §6). >1 gives
     * the Pipeline per-thread RAT/ROB/LSQ partitions over shared
     * register files, queues, FUs, caches, and predictor.
     */
    unsigned smtThreads = 1;

    /**
     * Derived: bypass window in cycles for the integer file — the
     * number of cycles after completion during which a result can be
     * forwarded. One level per writeback stage plus the final
     * FU-output level; without the extra level a two-stage writeback
     * leaves a one-cycle gap where dependents must wait for the file.
     */
    unsigned intBypassWindow() const
    {
        return intWbStages + (extraBypassLevel ? 1 : 0);
    }
    /** FP file keeps a conventional single-stage writeback. */
    unsigned fpBypassWindow() const { return 2; }

    /** Paper configurations. */
    static CoreParams unlimited();
    static CoreParams baseline();
    static CoreParams contentAware(unsigned d_plus_n = 20, unsigned n = 3,
                                   unsigned long_entries = 48);
    /** Baseline core timing over the port-reduction backend. */
    static CoreParams portReduction(unsigned shared_read_ports = 4);

    /**
     * Canonical core configuration for a registry backend name: the
     * matching paper configuration for the three legacy names, and
     * baseline core timing with regFileBackend set for anything else
     * (so newly registered backends are benchable by name alone).
     */
    static CoreParams forBackend(const std::string &name);
};

} // namespace carf::core

#endif // CARF_CORE_PARAMS_HH
