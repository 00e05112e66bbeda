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
    auto file = std::make_unique<BaselineRegFile>(instance, params.entries);
    file->setPortGeometry(params.readPorts, params.writePorts);
    return file;
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
}

} // namespace detail

BaselineRegFile::BaselineRegFile(std::string name, unsigned entries)
    : RegisterFile(std::move(name), entries), file_(entries)
{
}

void
BaselineRegFile::reset()
{
    RegisterFile::reset();
    file_.assign(entries_, Entry{});
}

ReadAccess
BaselineRegFile::read(u32 tag)
{
    const Entry &e = file_.at(tag);
    if (!e.live)
        panic("%s: read of dead tag %u", name_.c_str(), tag);
    ReadAccess access;
    access.value = e.value;
    // The reporting taxonomy (simple/long), bound statically.
    access.type = RegisterFile::classifyPeek(e.value);
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
    access.type = RegisterFile::classifyPeek(value);
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
    return {e.live, RegisterFile::classifyPeek(e.value), e.value, 0};
}

} // namespace carf::regfile
