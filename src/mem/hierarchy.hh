/**
 * @file
 * Two-level cache hierarchy with the paper's Table 1 defaults:
 * I-L1 32KB/4-way/1cy, D-L1 32KB/4-way/1cy (2 ports), L2 1MB/4-way/
 * 10cy, memory 100cy.
 */

#ifndef CARF_MEM_HIERARCHY_HH
#define CARF_MEM_HIERARCHY_HH

#include "mem/cache.hh"

namespace carf::mem
{

/** Hierarchy parameters (Table 1 defaults). */
struct HierarchyParams
{
    CacheParams il1{"il1", 32 * 1024, 4, 64, 1};
    CacheParams dl1{"dl1", 32 * 1024, 4, 64, 1};
    CacheParams l2{"l2", 1024 * 1024, 4, 64, 10};
    Cycle memoryLatency = 100;
    unsigned dl1Ports = 2;
};

/**
 * Unified L2 behind split L1s. Returns total access latency for a
 * reference; misses propagate downward.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyParams &params = {});

    /** Instruction fetch for the line containing @p pc-address. */
    Cycle instAccess(Addr addr) { return access(il1_, addr); }

    /** Data access (load or store allocate-on-miss). */
    Cycle dataAccess(Addr addr) { return access(dl1_, addr); }

    unsigned dl1Ports() const { return params_.dl1Ports; }

    const Cache &il1() const { return il1_; }
    const Cache &dl1() const { return dl1_; }
    const Cache &l2() const { return l2_; }

  private:
    /** Look @p addr up in @p l1, then the L2, then memory. */
    Cycle
    access(Cache &l1, Addr addr)
    {
        Cycle latency = l1.params().hitLatency;
        if (l1.access(addr))
            return latency;
        latency += l2_.params().hitLatency;
        if (l2_.access(addr))
            return latency;
        return latency + params_.memoryLatency;
    }

    HierarchyParams params_;
    Cache il1_;
    Cache dl1_;
    Cache l2_;
};

} // namespace carf::mem

#endif // CARF_MEM_HIERARCHY_HH
