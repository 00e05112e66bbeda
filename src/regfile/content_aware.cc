#include "regfile/content_aware.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "regfile/registry.hh"

namespace carf::regfile
{

namespace
{

std::vector<energy::BankGeometry>
contentAwareBanks(const RegFileParams &params)
{
    const SimilarityParams &sim = params.ca.sim;
    // Simple holds the 2-bit RD field plus the d+n-bit value field per
    // tag; Short gets one extra read port per core write port (the WR1
    // compares, §3.2) and two write ports (the address-allocation
    // path); Long is K entries of 64-d-n+m bits.
    return {
        {"simple", params.entries, sim.simpleFieldBits() + 2,
         params.readPorts, params.writePorts},
        {"short", sim.shortEntries(), sim.shortEntryBits(),
         params.readPorts + params.writePorts, 2},
        {"long", params.ca.longEntries, params.ca.longEntryBits(),
         params.readPorts, params.writePorts},
    };
}

std::vector<energy::EnergyTerm>
contentAwareEnergyTerms(const std::vector<energy::BankGeometry> &banks,
                        const AccessCounts &counts, u64 short_alloc_writes)
{
    auto idx = [](ValueType t) { return static_cast<unsigned>(t); };
    const energy::BankGeometry &simple = banks[0];
    const energy::BankGeometry &shortBank = banks[1];
    const energy::BankGeometry &longBank = banks[2];
    return {
        // Every architectural read first reads the Simple entry (RF1).
        {simple, counts.totalReads(), false},
        // RF2 touches the typed sub-file for short/long values.
        {shortBank, counts.reads[idx(ValueType::Short)], false},
        {longBank, counts.reads[idx(ValueType::Long)], false},
        // Every writeback writes the Simple entry (RD + value field).
        {simple, counts.totalWrites(), true},
        // Long-typed writebacks write the Long file.
        {longBank, counts.writes[idx(ValueType::Long)], true},
        // WR1 classification probes read the Short file.
        {shortBank, counts.shortProbeReads, false},
        // Address-path allocations write the Short file.
        {shortBank, short_alloc_writes, true},
    };
}

std::string
describeContentAware(const RegFileParams &params)
{
    return strprintf(", d+n=%u, M=%u, K=%u", params.ca.sim.simpleFieldBits(),
                     params.ca.sim.shortEntries(), params.ca.longEntries);
}

} // namespace

namespace detail
{

void
registerContentAwareBackend(Registry &r)
{
    r.add("content-aware",
          "three-sub-file content-aware organization (paper section 3)",
          [](const std::string &instance, const RegFileParams &params) {
              return std::make_unique<ContentAwareRegFile>(
                  instance, params.entries, params.ca, params.threads);
          },
          {contentAwareBanks, contentAwareEnergyTerms,
           describeContentAware});
}

} // namespace detail

unsigned
ContentAwareParams::longPointerBits() const
{
    return log2Ceil(longEntries);
}

unsigned
ContentAwareParams::longEntryBits() const
{
    return 64 - sim.d() - sim.n() + longPointerBits();
}

void
ContentAwareParams::validate() const
{
    sim.validate();
    if (longEntries < 1)
        fatal("ContentAwareParams: need at least one Long entry");
    if (issueStallThreshold >= longEntries) {
        fatal("ContentAwareParams: issue-stall threshold %u >= K=%u "
              "Long entries would stall issue forever",
              issueStallThreshold, longEntries);
    }
    if (longPointerBits() > sim.simpleFieldBits()) {
        fatal("ContentAwareParams: long pointer (%u bits) does not fit "
              "the simple value field (%u bits)",
              longPointerBits(), sim.simpleFieldBits());
    }
}

ContentAwareRegFile::ContentAwareRegFile(std::string name, unsigned entries,
                                         const ContentAwareParams &params,
                                         unsigned threads)
    : RegisterFile(std::move(name), entries),
      params_(params),
      shortFile_(params.sim, params.associativeShort),
      file_(entries),
      longFile_(params.longEntries, 0),
      threads_(threads > 0 ? threads : 1)
{
    params_.validate();
    valueTaxonomy_ = true;
    for (u32 i = 0; i < params_.longEntries; ++i)
        freeLong_.push_back(params_.longEntries - 1 - i);
    shortOwner_.assign(params_.sim.shortEntries(), 0);
    sharing_.shortHits.assign(threads_, 0);
    sharing_.crossShortHits.assign(threads_, 0);
}

u64
ContentAwareRegFile::reconstruct(const Entry &entry) const
{
    const SimilarityParams &sim = params_.sim;
    unsigned field_bits = sim.simpleFieldBits();
    switch (entry.type) {
      case ValueType::Simple:
        return signExtend(entry.valueField, field_bits);
      case ValueType::Short:
        return (shortFile_.tag(entry.subIndex) << field_bits) |
               entry.valueField;
      case ValueType::Long: {
        unsigned low_bits = field_bits - params_.longPointerBits();
        u64 high = longFile_[entry.subIndex];
        return low_bits == 0 ? high : (high << low_bits) | entry.valueField;
      }
    }
    panic("ContentAwareRegFile: bad entry type");
}

ReadAccess
ContentAwareRegFile::read(u32 tag)
{
    const Entry &entry = file_.at(tag);
    if (!entry.live)
        panic("%s: read of dead tag %u", name_.c_str(), tag);
    ReadAccess access;
    access.type = entry.type;
    access.value = reconstruct(entry);
    countRead(entry.type);
    return access;
}

WriteAccess
ContentAwareRegFile::doWrite(u32 tag, u64 value, unsigned tid, bool forced)
{
    Entry &entry = file_.at(tag);
    if (entry.live)
        panic("%s: double write of tag %u", name_.c_str(), tag);

    const SimilarityParams &sim = params_.sim;
    tid = thread(tid);

    if (params_.allocShortOnAnyResult) {
        unsigned alloc_idx = 0;
        bool fresh = false;
        if (shortFile_.tryAllocate(value, alloc_idx, fresh) && fresh)
            shortOwner_[alloc_idx] = tid;
    }

    unsigned short_idx = 0;
    ValueType type = classifyValue(value, sim, shortFile_, short_idx);

    WriteAccess access;
    access.type = type;

    switch (type) {
      case ValueType::Simple:
        entry.valueField = bits(value, 0, sim.simpleFieldBits());
        entry.subIndex = 0;
        break;
      case ValueType::Short:
        entry.valueField = bits(value, 0, sim.simpleFieldBits());
        entry.subIndex = short_idx;
        shortFile_.addRef(short_idx);
        shortFile_.touch(short_idx);
        // A Short-typed writeback is a hit on the resident group; when
        // the group was first placed by a different hardware thread it
        // is a cross-thread share.
        ++sharing_.shortHits[tid];
        if (shortOwner_[short_idx] != tid)
            ++sharing_.crossShortHits[tid];
        break;
      case ValueType::Long: {
        if (freeLong_.empty()) {
            if (!forced) {
                access.stalled = true;
                return access;
            }
            // Pseudo-deadlock recovery: grow an emergency overflow
            // entry. Real hardware stalls and drains; the overflow
            // entry stands in for the entry freed by that drain.
            freeLong_.push_back(static_cast<u32>(longFile_.size()));
            longFile_.push_back(0);
        }
        u32 long_idx = freeLong_.back();
        freeLong_.pop_back();
        unsigned low_bits =
            sim.simpleFieldBits() - params_.longPointerBits();
        longFile_[long_idx] = value >> low_bits;
        entry.valueField =
            low_bits == 0 ? 0 : bits(value, 0, low_bits);
        entry.subIndex = long_idx;
        break;
      }
    }

    entry.live = true;
    entry.type = type;
    countWrite(type);
    // WR1 probes the Short file once per integer writeback (the
    // classification compare); counted for the energy model.
    ++counts_.shortProbeReads;

    u64 check = reconstruct(entry);
    if (check != value) {
        panic("%s: reconstruction mismatch tag %u type %s: "
              "wrote %llx read %llx", name_.c_str(), tag,
              valueTypeName(type), (unsigned long long)value,
              (unsigned long long)check);
    }
    return access;
}

void
ContentAwareRegFile::release(u32 tag)
{
    Entry &entry = file_.at(tag);
    if (!entry.live)
        return;
    switch (entry.type) {
      case ValueType::Simple:
        break;
      case ValueType::Short:
        shortFile_.dropRef(entry.subIndex);
        break;
      case ValueType::Long:
        // Overflow entries created by pseudo-deadlock recovery retire
        // permanently; only real Long file entries return to the free
        // list, so recovery never inflates the modelled capacity.
        if (entry.subIndex < params_.longEntries)
            freeLong_.push_back(entry.subIndex);
        break;
    }
    entry.live = false;
}

void
ContentAwareRegFile::doNoteAddress(u64 addr, unsigned tid)
{
    unsigned alloc_idx = 0;
    bool fresh = false;
    if (shortFile_.tryAllocate(addr, alloc_idx, fresh) && fresh)
        shortOwner_[alloc_idx] = thread(tid);
}

bool
ContentAwareRegFile::shouldStallIssue() const
{
    return freeLong_.size() <= params_.issueStallThreshold;
}

void
ContentAwareRegFile::onRobInterval()
{
    shortFile_.robIntervalTick();
}

unsigned
ContentAwareRegFile::liveLongEntries() const
{
    unsigned live = 0;
    for (const Entry &entry : file_)
        live += entry.live && entry.type == ValueType::Long ? 1 : 0;
    return live;
}

std::string
ContentAwareRegFile::checkInvariants() const
{
    std::string short_err = shortFile_.checkInvariants();
    if (!short_err.empty())
        return short_err;

    const SimilarityParams &sim = params_.sim;
    unsigned field_bits = sim.simpleFieldBits();
    unsigned long_low_bits = field_bits - params_.longPointerBits();

    std::vector<unsigned> short_refs(shortFile_.entries(), 0);
    std::vector<bool> long_owned(longFile_.size(), false);
    unsigned live_real_long = 0;

    for (u32 tag = 0; tag < entries_; ++tag) {
        const Entry &entry = file_[tag];
        if (!entry.live)
            continue;
        switch (entry.type) {
          case ValueType::Simple:
            if (field_bits < 64 && (entry.valueField >> field_bits) != 0)
                return strprintf("%s: tag %u simple field %llx exceeds "
                                 "%u bits", name_.c_str(), tag,
                                 (unsigned long long)entry.valueField,
                                 field_bits);
            break;
          case ValueType::Short:
            if (entry.subIndex >= shortFile_.entries())
                return strprintf("%s: tag %u short index %u out of "
                                 "range", name_.c_str(), tag,
                                 entry.subIndex);
            if (!shortFile_.valid(entry.subIndex))
                return strprintf("%s: tag %u references invalid Short "
                                 "slot %u", name_.c_str(), tag,
                                 entry.subIndex);
            if (field_bits < 64 && (entry.valueField >> field_bits) != 0)
                return strprintf("%s: tag %u short field %llx exceeds "
                                 "%u bits", name_.c_str(), tag,
                                 (unsigned long long)entry.valueField,
                                 field_bits);
            ++short_refs[entry.subIndex];
            break;
          case ValueType::Long:
            if (entry.subIndex >= longFile_.size())
                return strprintf("%s: tag %u long index %u out of "
                                 "range", name_.c_str(), tag,
                                 entry.subIndex);
            if (long_owned[entry.subIndex])
                return strprintf("%s: Long entry %u owned by two live "
                                 "tags", name_.c_str(), entry.subIndex);
            long_owned[entry.subIndex] = true;
            if (long_low_bits < 64 &&
                (entry.valueField >> long_low_bits) != 0)
                return strprintf("%s: tag %u long low field %llx "
                                 "exceeds %u bits", name_.c_str(), tag,
                                 (unsigned long long)entry.valueField,
                                 long_low_bits);
            if (entry.subIndex < params_.longEntries)
                ++live_real_long;
            break;
        }
    }

    for (unsigned i = 0; i < shortFile_.entries(); ++i) {
        if (shortFile_.refCount(i) != short_refs[i])
            return strprintf("%s: Short slot %u refcount %u != %u live "
                             "references", name_.c_str(), i,
                             shortFile_.refCount(i), short_refs[i]);
    }

    std::vector<bool> free_seen(longFile_.size(), false);
    for (u32 idx : freeLong_) {
        if (idx >= params_.longEntries)
            return strprintf("%s: overflow Long entry %u on the free "
                             "list", name_.c_str(), idx);
        if (free_seen[idx])
            return strprintf("%s: Long entry %u freed twice",
                             name_.c_str(), idx);
        free_seen[idx] = true;
        if (long_owned[idx])
            return strprintf("%s: Long entry %u both free and live",
                             name_.c_str(), idx);
    }
    if (freeLong_.size() + live_real_long != params_.longEntries)
        return strprintf("%s: %zu free + %u live Long entries != K=%u",
                         name_.c_str(), freeLong_.size(),
                         live_real_long, params_.longEntries);
    return "";
}

RegisterFile::Peek
ContentAwareRegFile::peek(u32 tag) const
{
    const Entry &entry = file_.at(tag);
    return {entry.live, entry.type, reconstruct(entry), entry.subIndex};
}

RegisterFile::Stats
ContentAwareRegFile::stats() const
{
    return {shortFile_.allocations(), sharing_};
}

} // namespace carf::regfile
