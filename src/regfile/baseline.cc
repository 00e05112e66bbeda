#include "regfile/baseline.hh"

#include "common/logging.hh"
#include "regfile/registry.hh"

namespace carf::regfile
{

namespace
{

std::unique_ptr<RegisterFile>
makeFlat(const std::string &instance, const RegFileParams &params)
{
    return std::make_unique<BaselineRegFile>(instance, params.entries);
}

std::unique_ptr<RegisterFile>
makePortReduction(const std::string &instance, const RegFileParams &params)
{
    params.portRed.validate();
    return std::make_unique<BaselineRegFile>(
        instance, params.entries, params.portRed.sharedReadPorts);
}

std::vector<energy::BankGeometry>
portReductionBanks(const RegFileParams &params)
{
    // The whole point: the array is built with the reduced read-port
    // pool, which enters the area model quadratically.
    return {{"file", params.entries, 64, params.portRed.sharedReadPorts,
             params.writePorts}};
}

std::string
describePortReduction(const RegFileParams &params)
{
    return strprintf(", shared-rd=%u", params.portRed.sharedReadPorts);
}

} // namespace

namespace detail
{

void
registerFlatBackends(Registry &r)
{
    r.add("baseline",
          "conventional flat 64-bit file (paper baseline geometry)",
          makeFlat);
    r.add("unlimited",
          "conventional flat file sized/ported to never constrain issue",
          makeFlat);
    r.add("port-reduction",
          "flat file with a reduced shared read-port pool (Los scheme)",
          makePortReduction,
          {portReductionBanks, nullptr, describePortReduction});
}

} // namespace detail

void
PortReductionParams::validate() const
{
    // An instruction may need one file read per source operand in a
    // single cycle; fewer than two shared ports would deadlock
    // two-source consumers of non-bypassable operands.
    if (sharedReadPorts < 2)
        fatal("PortReductionParams: need at least 2 shared read ports");
}

BaselineRegFile::BaselineRegFile(std::string name, unsigned entries,
                                 unsigned read_port_pool)
    : RegisterFile(std::move(name), entries), file_(entries)
{
    readPortPool_ = read_port_pool;
}

ReadAccess
BaselineRegFile::read(u32 tag)
{
    const Entry &e = file_.at(tag);
    if (!e.live)
        panic("%s: read of dead tag %u", name_.c_str(), tag);
    ReadAccess access;
    access.value = e.value;
    access.type = flatValueType(e.value);
    countRead(access.type);
    return access;
}

WriteAccess
BaselineRegFile::doWrite(u32 tag, u64 value, unsigned tid, bool forced)
{
    (void)tid;
    (void)forced;
    Entry &e = file_.at(tag);
    e.live = true;
    e.value = value;
    WriteAccess access;
    access.type = flatValueType(value);
    countWrite(access.type);
    return access;
}

void
BaselineRegFile::release(u32 tag)
{
    file_.at(tag).live = false;
}

RegisterFile::Peek
BaselineRegFile::peek(u32 tag) const
{
    const Entry &e = file_.at(tag);
    return {e.live, flatValueType(e.value), e.value, 0};
}

} // namespace carf::regfile
