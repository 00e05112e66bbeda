#include "testing/shadow_regfile.hh"

#include "common/logging.hh"

namespace carf::testing
{

using regfile::ValueType;

ShadowRegFile::ShadowRegFile(unsigned entries, unsigned short_entries,
                             unsigned long_entries)
    : regs_(entries), shortRefs_(short_entries, 0),
      longEntries_(long_entries), freeLong_(long_entries)
{
}

void
ShadowRegFile::reset()
{
    regs_.assign(regs_.size(), Reg{});
    shortRefs_.assign(shortRefs_.size(), 0);
    freeLong_ = longEntries_;
}

void
ShadowRegFile::noteWrite(u32 tag, u64 value, ValueType type,
                         unsigned sub_index)
{
    Reg &reg = regs_.at(tag);
    if (reg.live)
        panic("ShadowRegFile: write of live tag %u", tag);
    reg.live = true;
    reg.value = value;
    reg.type = type;
    reg.subIndex = sub_index;
    if (type == ValueType::Short)
        ++shortRefs_.at(sub_index);
    // Overflow entries (index >= K) come from pseudo-deadlock recovery
    // and never touch the real free list.
    if (type == ValueType::Long && sub_index < longEntries_)
        --freeLong_;
}

void
ShadowRegFile::noteRelease(u32 tag)
{
    Reg &reg = regs_.at(tag);
    if (!reg.live)
        return;
    if (reg.type == ValueType::Short) {
        unsigned &refs = shortRefs_.at(reg.subIndex);
        if (refs == 0)
            panic("ShadowRegFile: releasing tag %u would drop Short "
                  "slot %u below zero refs", tag, reg.subIndex);
        --refs;
    }
    if (reg.type == ValueType::Long && reg.subIndex < longEntries_)
        ++freeLong_;
    reg.live = false;
}

unsigned
ShadowRegFile::liveLongEntries() const
{
    unsigned live = 0;
    for (const Reg &reg : regs_)
        live += reg.live && reg.type == ValueType::Long ? 1 : 0;
    return live;
}

std::string
ShadowRegFile::check(const regfile::RegisterFile &file) const
{
    for (u32 tag = 0; tag < regs_.size(); ++tag) {
        const Reg &reg = regs_[tag];
        regfile::RegisterFile::Peek impl = file.peek(tag);
        if (impl.live != reg.live)
            return strprintf("tag %u: impl live=%d oracle live=%d", tag,
                             impl.live ? 1 : 0, reg.live ? 1 : 0);
        if (!reg.live)
            continue;
        if (impl.value != reg.value)
            return strprintf("tag %u: impl value %llx != oracle %llx",
                             tag, (unsigned long long)impl.value,
                             (unsigned long long)reg.value);
        if (impl.type != reg.type)
            return strprintf("tag %u: impl type %s != oracle %s", tag,
                             valueTypeName(impl.type),
                             valueTypeName(reg.type));
    }

    regfile::RegisterFile::StructureCounts sc = file.structureCounts();
    if (sc.shortRefCounts.size() != shortRefs_.size())
        return strprintf("Short file: impl %zu slots != oracle %zu",
                         sc.shortRefCounts.size(), shortRefs_.size());
    for (unsigned i = 0; i < shortRefs_.size(); ++i) {
        if (sc.shortRefCounts[i] != shortRefs_[i])
            return strprintf("Short slot %u: impl refcount %u != "
                             "oracle %u", i, sc.shortRefCounts[i],
                             shortRefs_[i]);
    }
    if (!sc.hasLongFile)
        return "";
    if (sc.freeLong != freeLong_)
        return strprintf("Long free list: impl %u != oracle %u",
                         sc.freeLong, freeLong_);
    if (sc.liveLong != liveLongEntries())
        return strprintf("live Long entries: impl %u != oracle %u",
                         sc.liveLong, liveLongEntries());
    return "";
}

} // namespace carf::testing
