#include "testing/shadow_regfile.hh"

#include "common/logging.hh"
#include "regfile/content_aware.hh"

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

    auto *ca = dynamic_cast<const regfile::ContentAwareRegFile *>(&file);
    if (!ca)
        return "";
    const regfile::ShortFile &short_file = ca->shortFile();
    if (short_file.entries() != shortRefs_.size())
        return strprintf("Short file: impl %u slots != oracle %zu",
                         short_file.entries(), shortRefs_.size());
    for (unsigned i = 0; i < shortRefs_.size(); ++i) {
        if (short_file.refCount(i) != shortRefs_[i])
            return strprintf("Short slot %u: impl refcount %u != "
                             "oracle %u", i, short_file.refCount(i),
                             shortRefs_[i]);
    }
    if (ca->freeLongEntries() != freeLong_)
        return strprintf("Long free list: impl %u != oracle %u",
                         ca->freeLongEntries(), freeLong_);
    if (ca->liveLongEntries() != liveLongEntries())
        return strprintf("live Long entries: impl %u != oracle %u",
                         ca->liveLongEntries(), liveLongEntries());
    return "";
}

} // namespace carf::testing
