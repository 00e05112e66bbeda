#include "core/params.hh"

namespace carf::core
{

CoreParams
CoreParams::unlimited()
{
    CoreParams p;
    p.regFileBackend = "unlimited";
    p.physIntRegs = 160;
    p.physFpRegs = 160;
    p.intRfReadPorts = 16;
    p.intRfWritePorts = 8;
    p.fpRfReadPorts = 16;
    p.fpRfWritePorts = 8;
    return p;
}

CoreParams
CoreParams::baseline()
{
    CoreParams p;
    p.regFileBackend = "baseline";
    return p;
}

CoreParams
CoreParams::contentAware(unsigned d_plus_n, unsigned n,
                         unsigned long_entries)
{
    CoreParams p;
    p.regFileBackend = "content-aware";
    p.regReadStages = 2;
    p.intWbStages = 2;
    p.extraBypassLevel = true;
    p.ca.sim = regfile::SimilarityParams(d_plus_n - n, n);
    p.ca.longEntries = long_entries;
    p.ca.issueStallThreshold = p.issueWidth;
    return p;
}

CoreParams
CoreParams::portReduction(unsigned shared_read_ports)
{
    CoreParams p;
    p.regFileBackend = "port-reduction";
    p.portRed.sharedReadPorts = shared_read_ports;
    return p;
}

CoreParams
CoreParams::forBackend(const std::string &name)
{
    if (name == "unlimited")
        return unlimited();
    if (name == "baseline")
        return baseline();
    if (name == "content-aware")
        return contentAware();
    if (name == "port-reduction")
        return portReduction();
    CoreParams p;
    p.regFileBackend = name;
    return p;
}

} // namespace carf::core
