#include "regfile/regfile.hh"

#include "common/bitutil.hh"

namespace carf::regfile
{

RegisterFile::RegisterFile(std::string name, unsigned entries)
    : name_(std::move(name)), entries_(entries)
{
}

ValueType
RegisterFile::classifyPeek(u64 value) const
{
    // Without a Short file the taxonomy degenerates to simple/long;
    // use a 20-bit field (the paper's chosen d+n) for reporting.
    return fitsSigned(value, 20) ? ValueType::Simple : ValueType::Long;
}

} // namespace carf::regfile
