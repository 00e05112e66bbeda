#include "emu/trace_buffer.hh"

#include <algorithm>
#include <tuple>

#include "common/logging.hh"

namespace carf::emu
{

namespace
{

/**
 * What the encoding needs to know of an opcode, as register-slot
 * arithmetic: an operand with base b and mask m lives in slot
 * b + (index & m). An unused source is slot 64 (always 0); a
 * destination slot of 0 (x0, or an op that writes nothing) means the
 * record writes no register.
 */
struct alignas(8) OpTraits
{
    u8 src1Base;
    u8 src1Mask;
    u8 src2Base;
    u8 src2Mask;
    u8 dstBase;
    u8 dstMask;
    bool mem;
};

constexpr u8 kZeroSlot = 2 * isa::numArchRegs;
/** Takes the replay-side store of a record that writes nothing. */
constexpr u8 kDiscardSlot = kZeroSlot + 1;
constexpr u8 kRegMask = isa::numArchRegs - 1;

/** (base, mask) of an operand of register class @p c. */
std::pair<u8, u8>
slotOf(isa::RegClass c, u8 none_base)
{
    switch (c) {
      case isa::RegClass::Int: return {0, kRegMask};
      case isa::RegClass::Fp: return {isa::numArchRegs, kRegMask};
      case isa::RegClass::None: break;
    }
    return {none_base, 0};
}

/**
 * Indexed by the raw opcode byte. Bytes past NumOpcodes read nothing
 * and write nothing, so any source record encodes (as irregular when
 * its values say otherwise).
 */
const std::array<OpTraits, 256> kTraits = [] {
    std::array<OpTraits, 256> table{};
    for (auto &t : table)
        t = {kZeroSlot, 0, kZeroSlot, 0, 0, 0, false};
    for (size_t i = 0; i < size_t(isa::Opcode::NumOpcodes); ++i) {
        auto op = static_cast<isa::Opcode>(i);
        const isa::OpInfo &info = isa::opInfo(op);
        OpTraits &t = table[i];
        std::tie(t.src1Base, t.src1Mask) =
            slotOf(info.rs1Class, kZeroSlot);
        std::tie(t.src2Base, t.src2Mask) =
            slotOf(info.rs2Class, kZeroSlot);
        std::tie(t.dstBase, t.dstMask) = slotOf(info.rdClass, 0);
        t.mem = isa::isMem(op);
    }
    return table;
}();

/** Flag bits of one record; 32 records share a flags word. */
constexpr unsigned kTakenFlag = 1;
constexpr unsigned kIrregularFlag = 2;

unsigned
flagsOf(const std::vector<u64> &flags, u64 index)
{
    return (flags[index >> 5] >> ((index & 31) * 2)) & 3;
}

} // namespace

TraceBuffer::TraceBuffer(std::string name, u64 requested_budget)
    : name_(std::move(name)), requestedBudget_(requested_budget),
      values_(1), targets_(1)
{
}

std::unique_ptr<TraceBuffer>
TraceBuffer::build(TraceSource &source, std::string name, u64 max_insts)
{
    auto buffer =
        std::make_unique<TraceBuffer>(std::move(name), max_insts);
    // Reserving the per-record arrays up front saves their
    // geometric-growth copies (and their shrinkToFit copy when the
    // budget is reached exactly); the compact arrays' lengths depend
    // on the stream, so they grow as records arrive. The cap
    // bounds the transient overcommit for huge budgets on short
    // programs; past it, geometric growth takes over as usual.
    buffer->reserve(std::min(max_insts, u64{1} << 22));
    DynOp op;
    for (u64 i = 0; i < max_insts && source.next(op); ++i)
        buffer->append(op);
    buffer->shrinkToFit();
    return buffer;
}

void
TraceBuffer::append(const DynOp &op)
{
    if (empty()) {
        baseSeq_ = op.seq;
        firstPc_ = op.pc;
    } else {
        // Derivation requires a well-formed program-order stream:
        // dense sequence numbers, and each record's pc equal to its
        // predecessor's nextPc.
        u64 expect_seq = baseSeq_ + size();
        if (op.seq != expect_seq)
            panic("TraceBuffer '%s': non-contiguous seq %llu "
                  "(expected %llu)",
                  name_.c_str(), (unsigned long long)op.seq,
                  (unsigned long long)expect_seq);
        if (op.pc != tailPc_)
            panic("TraceBuffer '%s': record %llu pc %llu does not "
                  "follow predecessor nextPc %llu",
                  name_.c_str(), (unsigned long long)size(),
                  (unsigned long long)op.pc,
                  (unsigned long long)tailPc_);
    }

    u64 index = size();
    u8 opcode = static_cast<u8>(op.op);
    const OpTraits &t = kTraits[opcode];
    auto &regs = tailRegs_;
    unsigned dst = t.dstBase + (op.rd & t.dstMask);
    bool regular =
        op.rs1Value == regs[t.src1Base + (op.rs1 & t.src1Mask)] &&
        op.rs2Value == regs[t.src2Base + (op.rs2 & t.src2Mask)] &&
        (dst != 0 || op.rdValue == 0) && (t.mem || op.effAddr == 0) &&
        (op.taken ? op.nextPc <= ~u32{0} : op.nextPc == op.pc + 1);

    decode_.push_back({opcode, op.rd, op.rs1, op.rs2});
    unsigned flags = (op.taken ? kTakenFlag : 0) |
                     (regular ? 0 : kIrregularFlag);
    if ((index & 31) == 0)
        flags_.push_back(0);
    flags_[index >> 5] |= u64{flags} << ((index & 31) * 2);
    if (regular) {
        // The compact arrays end in a pad entry, so replay may read
        // one past its position: a field takes the pad's place and a
        // new pad follows. rdValue and effAddr share one array.
        auto store = [](auto &v, auto value) {
            v.back() = value;
            v.push_back(0);
        };
        if (dst != 0)
            store(values_, op.rdValue);
        if (t.mem)
            store(values_, op.effAddr);
        if (op.taken)
            store(targets_, static_cast<u32>(op.nextPc));
    } else {
        irregular_.push_back({op.rs1Value, op.rs2Value, op.rdValue,
                              op.effAddr, op.nextPc});
    }
    if (dst != 0)
        regs[dst] = op.rdValue;
    tailPc_ = op.nextPc;
}

u64
TraceBuffer::memoryBytes() const
{
    return fieldSizes().total() + sizeof(*this) + name_.capacity();
}

TraceBuffer::FieldSizes
TraceBuffer::fieldSizes() const
{
    auto bytes = [](const auto &v) {
        return v.capacity() * sizeof(v[0]);
    };
    FieldSizes sizes;
    sizes.decode = bytes(decode_);
    sizes.flags = bytes(flags_);
    sizes.values = bytes(values_);
    sizes.targets = bytes(targets_);
    sizes.irregular = bytes(irregular_);
    return sizes;
}

void
TraceBuffer::reserve(u64 records)
{
    decode_.reserve(records);
    flags_.reserve((records + 31) / 32);
}

void
TraceBuffer::shrinkToFit()
{
    decode_.shrink_to_fit();
    flags_.shrink_to_fit();
    values_.shrink_to_fit();
    targets_.shrink_to_fit();
    irregular_.shrink_to_fit();
}

TraceBuffer::Cursor::Cursor(const TraceBuffer &buffer, u64 max_insts)
    : buffer_(&buffer), limit_(std::min(buffer.size(), max_insts))
{
    reset();
}

bool
TraceBuffer::Cursor::next(DynOp &out)
{
    if (pos_ >= limit_)
        return false;
    const TraceBuffer &b = *buffer_;
    u64 index = pos_++;
    const Decode d = b.decode_[index];
    const OpTraits &t = kTraits[d.op];
    auto &regs = regs_;
    unsigned dst = t.dstBase + (d.rd & t.dstMask);
    bool writes = dst != 0;
    unsigned flags = flagsOf(b.flags_, index);
    bool taken = flags & kTakenFlag;

    out.seq = b.baseSeq_ + index;
    out.pc = pc_;
    out.op = static_cast<isa::Opcode>(d.op);
    out.rd = d.rd;
    out.rs1 = d.rs1;
    out.rs2 = d.rs2;
    out.taken = taken;
    // Results go through locals: a store to regs might alias out.
    u64 rd_value = 0;
    u64 next_pc = 0;
    if (!(flags & kIrregularFlag)) [[likely]] {
        // Branch-free: thanks to the pads every read is in bounds,
        // and a field the record lacks reads as 0 without advancing
        // its array.
        const u64 *words = b.values_.data() + valuePos_;
        u64 first = words[0];
        u64 second = words[writes];
        u64 target = b.targets_[targetPos_];
        out.rs1Value = regs[t.src1Base + (d.rs1 & t.src1Mask)];
        out.rs2Value = regs[t.src2Base + (d.rs2 & t.src2Mask)];
        rd_value = first & -u64{writes};
        out.effAddr = second & -u64{t.mem};
        next_pc = taken ? target : pc_ + 1;
        valuePos_ += writes + t.mem;
        targetPos_ += taken;
    } else {
        const Irregular &x = b.irregular_[irregularPos_++];
        out.rs1Value = x.rs1Value;
        out.rs2Value = x.rs2Value;
        out.effAddr = x.effAddr;
        rd_value = x.rdValue;
        next_pc = x.nextPc;
    }
    out.rdValue = rd_value;
    out.nextPc = next_pc;
    pc_ = next_pc;
    regs[writes ? dst : kDiscardSlot] = rd_value;
    return true;
}

void
TraceBuffer::Cursor::reset()
{
    pos_ = 0;
    regs_.fill(0);
    pc_ = buffer_->firstPc_;
    valuePos_ = targetPos_ = irregularPos_ = 0;
}

void
TraceBuffer::Cursor::skip(u64 n)
{
    // Registers and compact-array positions depend on every record
    // before the new position, so skipping decodes.
    DynOp op;
    for (; n > 0 && next(op); --n) {
    }
}

} // namespace carf::emu
