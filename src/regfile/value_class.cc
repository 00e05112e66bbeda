#include "regfile/value_class.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace carf::regfile
{

const char *
valueTypeName(ValueType type)
{
    switch (type) {
      case ValueType::Simple: return "simple";
      case ValueType::Short: return "short";
      case ValueType::Long: return "long";
    }
    return "?";
}

void
SimilarityParams::validate() const
{
    if (d_ < 1 || n_ < 1 || d_ + n_ >= 64)
        fatal("SimilarityParams: bad d=%u n=%u", d_, n_);
    if (n_ > 8)
        fatal("SimilarityParams: short file too large (n=%u)", n_);
}

ShortFile::ShortFile(const SimilarityParams &params, bool associative)
    : params_(params), associative_(associative),
      slots_(params.shortEntries())
{
    params_.validate();
}

bool
ShortFile::lookup(u64 value, unsigned &idx_out) const
{
    u64 tag = params_.shortTag(value);
    if (associative_) {
        // Full tag for associative search includes the index bits,
        // since any slot may hold any group.
        u64 full = value >> params_.d();
        for (unsigned i = 0; i < slots_.size(); ++i) {
            if (slots_[i].valid && slots_[i].tag == full) {
                idx_out = i;
                return true;
            }
        }
        return false;
    }
    unsigned idx = params_.shortIndex(value);
    if (slots_[idx].valid && slots_[idx].tag == tag) {
        idx_out = idx;
        return true;
    }
    return false;
}

bool
ShortFile::tryAllocate(u64 value)
{
    unsigned idx;
    bool fresh;
    return tryAllocate(value, idx, fresh);
}

bool
ShortFile::tryAllocate(u64 value, unsigned &idx_out, bool &fresh_out)
{
    fresh_out = false;
    if (lookup(value, idx_out))
        return true;

    if (associative_) {
        u64 full = value >> params_.d();
        for (unsigned i = 0; i < slots_.size(); ++i) {
            if (!slots_[i].valid) {
                slots_[i] = Slot{};
                slots_[i].valid = true;
                slots_[i].tag = full;
                ++allocations_;
                idx_out = i;
                fresh_out = true;
                return true;
            }
        }
        return false;
    }

    unsigned slot = params_.shortIndex(value);
    if (slots_[slot].valid)
        return false;
    slots_[slot] = Slot{};
    slots_[slot].valid = true;
    slots_[slot].tag = params_.shortTag(value);
    ++allocations_;
    idx_out = slot;
    fresh_out = true;
    return true;
}

void
ShortFile::touch(unsigned idx)
{
    slots_.at(idx).tcur = true;
}

void
ShortFile::addRef(unsigned idx)
{
    ++slots_.at(idx).refs;
}

void
ShortFile::dropRef(unsigned idx)
{
    Slot &slot = slots_.at(idx);
    if (slot.refs == 0)
        panic("ShortFile: dropRef on idx %u with zero refs", idx);
    --slot.refs;
}

void
ShortFile::robIntervalTick()
{
    for (Slot &slot : slots_) {
        if (!slot.valid)
            continue;
        // Tarch is recomputed from the live references; an entry was
        // "used this interval" if a short-typed result touched it or a
        // live register still points at it. An entry is reclaimed only
        // when it was unused in both this interval and the previous
        // one (Told, Tcur, and Tarch all clear).
        bool used = slot.tcur || slot.refs > 0;
        if (!used && !slot.told && slot.refs == 0) {
            slot.valid = false;
            ++reclamations_;
        } else {
            slot.told = used;
            slot.tcur = false;
        }
    }
}

std::string
ShortFile::checkInvariants() const
{
    unsigned tag_bits = associative_ ? 64 - params_.d()
                                     : params_.shortEntryBits();
    for (unsigned i = 0; i < slots_.size(); ++i) {
        const Slot &slot = slots_[i];
        if (!slot.valid) {
            // Reclamation requires refs == 0 and both epoch bits
            // clear, and allocation resets the slot, so an invalid
            // slot must carry no stale bookkeeping.
            if (slot.refs != 0)
                return strprintf("ShortFile: invalid slot %u has %u "
                                 "refs", i, slot.refs);
            if (slot.tcur || slot.told)
                return strprintf("ShortFile: invalid slot %u has "
                                 "epoch bits set", i);
            continue;
        }
        if (tag_bits < 64 && (slot.tag >> tag_bits) != 0)
            return strprintf("ShortFile: slot %u tag %llx exceeds "
                             "%u bits", i,
                             (unsigned long long)slot.tag, tag_bits);
    }
    return "";
}

u64
ShortFile::tag(unsigned idx) const
{
    const Slot &slot = slots_.at(idx);
    // Associative slots store the full (64-d)-bit group id; drop the
    // low n bits to get the canonical high field.
    return associative_ ? slot.tag >> params_.n() : slot.tag;
}

unsigned
ShortFile::liveEntries() const
{
    unsigned live = 0;
    for (const Slot &slot : slots_)
        live += slot.valid ? 1 : 0;
    return live;
}

ValueType
classifyValue(u64 value, const SimilarityParams &params,
              const ShortFile &short_file, unsigned &short_idx)
{
    if (params.isSimple(value))
        return ValueType::Simple;
    if (short_file.lookup(value, short_idx))
        return ValueType::Short;
    return ValueType::Long;
}

ValueType
flatValueType(u64 value)
{
    return fitsSigned(value, 20) ? ValueType::Simple : ValueType::Long;
}

} // namespace carf::regfile
