#include "regfile/port_reduction.hh"

#include "common/logging.hh"
#include "regfile/registry.hh"

namespace carf::regfile
{

namespace detail
{

void
registerPortReductionBackend(Registry &r)
{
    r.add("port-reduction",
          "flat file with a reduced shared read-port pool (Los scheme)",
          [](const std::string &instance, const RegFileParams &params) {
              auto file = std::make_unique<PortReductionRegFile>(
                  instance, params.entries, params.portRed);
              file->setPortGeometry(params.readPorts, params.writePorts);
              return std::unique_ptr<RegisterFile>(std::move(file));
          });
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

PortReductionRegFile::PortReductionRegFile(std::string name,
                                           unsigned entries,
                                           const PortReductionParams &params)
    : BaselineRegFile(std::move(name), entries), params_(params)
{
    params_.validate();
    readPortPool_ = params_.sharedReadPorts;
}

std::vector<BankGeometry>
PortReductionRegFile::banks() const
{
    // The whole point: the array is built with the reduced read-port
    // pool, which enters the area model quadratically.
    return {{"file", entries_, 64, params_.sharedReadPorts, writePorts_}};
}

std::string
PortReductionRegFile::describeExtra() const
{
    return strprintf(", shared-rd=%u", params_.sharedReadPorts);
}

} // namespace carf::regfile
