#include "regfile/regfile.hh"

namespace carf::regfile
{

RegisterFile::RegisterFile(std::string name, unsigned entries)
    : name_(std::move(name)), entries_(entries)
{
}

} // namespace carf::regfile
