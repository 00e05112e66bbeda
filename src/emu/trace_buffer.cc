#include "emu/trace_buffer.hh"

#include <algorithm>
#include <tuple>

#include "common/logging.hh"

namespace carf::emu
{

namespace
{

constexpr u8 kZeroSlot = 2 * isa::numArchRegs;
/** Takes the replay-side store of a record that writes nothing. */
constexpr u8 kDiscardSlot = kZeroSlot + 1;
constexpr u8 kRegMask = isa::numArchRegs - 1;

/**
 * An operand's register slot as base + (index & mask), by opcode.
 * Indexed by the raw opcode byte. Bytes past NumOpcodes read nothing
 * and write nothing.
 */
struct OpTraits
{
    u8 src1Base;
    u8 src1Mask;
    u8 src2Base;
    u8 src2Mask;
    u8 dstBase;
    u8 dstMask;
    bool mem;
};

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

/**
 * The control byte of a record: a 2-bit rdValue code (which
 * prediction holds, or "stored"), then one bit each for taken and the
 * mispredicted decode, effAddr and taken target.
 */
constexpr unsigned kValueCodeMask = 3;
constexpr unsigned kValueStored = 0;
constexpr unsigned kValueLast = 1;
constexpr unsigned kValueStride = 2;
constexpr unsigned kValueDelta = 3;
constexpr unsigned kTakenFlag = 1 << 2;
constexpr unsigned kDecodeMissFlag = 1 << 3;
constexpr unsigned kAddrMissFlag = 1 << 4;
constexpr unsigned kTargetMissFlag = 1 << 5;

/**
 * @p c ? @p a : @p b as a mask, which compilers keep branch-free:
 * a branch on whether a field was stored mispredicts on every other
 * record.
 */
inline u64
pick(bool c, u64 a, u64 b)
{
    return b ^ ((a ^ b) & -u64{c});
}

/**
 * Append @p value to a compact array. The arrays end in a pad entry,
 * so replay may read one past its position: a field takes the pad's
 * place and a new pad follows.
 */
template <typename T>
void
store(std::vector<T> &v, T value)
{
    v.back() = value;
    v.push_back(T{});
}

} // namespace

inline void
TraceBuffer::Predictor::redecode(PredictorEntry &e, Decode d)
{
    const OpTraits &t = kTraits[d.op];
    u8 dst = t.dstBase + (d.rd & t.dstMask);
    e.decode = d;
    e.slots = {static_cast<u8>(t.src1Base + (d.rs1 & t.src1Mask)),
               static_cast<u8>(t.src2Base + (d.rs2 & t.src2Mask)),
               dst != 0 ? dst : kDiscardSlot, t.mem};
}

const TraceBuffer::PredictorEntry TraceBuffer::Predictor::kCold = [] {
    PredictorEntry e{};
    redecode(e, {});
    return e;
}();

TraceBuffer::Predictor::Predictor() : table_(kPredictorEntries, kCold)
{
}

inline TraceBuffer::PredictorEntry &
TraceBuffer::Predictor::lookup(u64 pc)
{
    PredictorEntry &e = table_[pc & (kPredictorEntries - 1)];
    if (e.tag != static_cast<u32>(pc)) [[unlikely]] {
        e = kCold;
        e.tag = static_cast<u32>(pc);
    }
    return e;
}

inline void
TraceBuffer::Predictor::update(PredictorEntry &e, u64 rs1_value,
                               u64 rd_value, u64 eff_addr, u64 target)
{
    // Unconditional, so replay does not branch on the record: a pc's
    // value and displacement history only predicts that pc's rdValue
    // and effAddr, so a non-writer's or non-memory op's junk history
    // is never read.
    e.value[kValueStride] = rd_value + (rd_value - e.value[kValueLast]);
    e.value[kValueLast] = rd_value;
    e.value[kValueDelta] = rd_value - rs1_value;
    e.disp = eff_addr - rs1_value;
    e.target = static_cast<u32>(target);
}

/**
 * Encodes records in program order against the registers and the
 * predictor a Cursor will have when it reaches them. Lives only for
 * the build, so a finished buffer carries no encoder state.
 */
class TraceBuffer::Encoder
{
  public:
    explicit Encoder(TraceBuffer &buffer) : b_(buffer) {}

    /** Append one record; ops must arrive in program order. */
    void append(const DynOp &op);

  private:
    TraceBuffer &b_;
    Registers regs_{};
    /** nextPc of the last record: the pc the next one must have. */
    u64 pc_ = 0;
    Predictor predictor_;
};

TraceBuffer::TraceBuffer(std::string name, u64 requested_budget)
    : name_(std::move(name)), requestedBudget_(requested_budget),
      decode_(1), values_(1), targets_(1)
{
}

std::unique_ptr<TraceBuffer>
TraceBuffer::build(TraceSource &source, std::string name, u64 max_insts,
                   u64 byte_budget)
{
    std::unique_ptr<TraceBuffer> buffer(
        new TraceBuffer(std::move(name), max_insts));
    // Reserving the control bytes up front saves their geometric-
    // growth copies (and their shrink copy when the budget is reached
    // exactly); the compact arrays' lengths depend on the stream, so
    // they grow as records arrive. The caps bound the transient
    // overcommit for huge budgets on short programs; past them,
    // geometric growth takes over as usual.
    buffer->control_.reserve(
        std::min({max_insts, u64{1} << 22, byte_budget}));
    Encoder encoder(*buffer);
    std::vector<DynOp> block(MeteredSource::blockRecords);
    for (u64 done = 0; done < max_insts;) {
        size_t want = std::min<u64>(block.size(), max_insts - done);
        size_t got = source.fill(std::span(block).first(want));
        for (size_t i = 0; i < got; ++i)
            encoder.append(block[i]);
        done += got;
        if (got < want)
            break;
        if (got == block.size() && buffer->encodedBytes() > byte_budget)
            return nullptr;
    }
    buffer->control_.shrink_to_fit();
    buffer->decode_.shrink_to_fit();
    buffer->values_.shrink_to_fit();
    buffer->targets_.shrink_to_fit();
    if (buffer->memoryBytes() > byte_budget)
        return nullptr;
    return buffer;
}

void
TraceBuffer::Encoder::append(const DynOp &op)
{
    TraceBuffer &b = b_;
    if (b.empty()) {
        b.baseSeq_ = op.seq;
        b.firstPc_ = op.pc;
    } else {
        // Derivation requires a well-formed program-order stream:
        // dense sequence numbers, and each record's pc equal to its
        // predecessor's nextPc.
        u64 expect_seq = b.baseSeq_ + b.size();
        if (op.seq != expect_seq)
            panic("TraceBuffer '%s': non-contiguous seq %llu "
                  "(expected %llu)",
                  b.name_.c_str(), (unsigned long long)op.seq,
                  (unsigned long long)expect_seq);
        if (op.pc != pc_)
            panic("TraceBuffer '%s': record %llu pc %llu does not "
                  "follow predecessor nextPc %llu",
                  b.name_.c_str(), (unsigned long long)b.size(),
                  (unsigned long long)op.pc,
                  (unsigned long long)pc_);
    }

    PredictorEntry &e = predictor_.lookup(op.pc);
    PredictionStats &stats = b.stats_;
    unsigned control = op.taken ? kTakenFlag : 0;
    const Decode d{static_cast<u8>(op.op), op.rd, op.rs1, op.rs2};
    ++stats.decode.records;
    if (d == e.decode) {
        ++stats.decode.hits;
    } else {
        control |= kDecodeMissFlag;
        store(b.decode_, d);
        Predictor::redecode(e, d);
    }
    const Slots slots = e.slots;
    bool writes = slots.dst != kDiscardSlot;
    auto &regs = regs_;
    bool derivable = op.rs1Value == regs[slots.src1] &&
                     op.rs2Value == regs[slots.src2] &&
                     (writes || op.rdValue == 0) &&
                     (slots.mem || op.effAddr == 0) &&
                     (op.taken ? op.nextPc <= ~u32{0}
                               : op.nextPc == op.pc + 1);
    if (!derivable)
        panic("TraceBuffer '%s': record %llu (pc %llu) has a source "
              "value, result, effAddr or nextPc that program order "
              "does not give",
              b.name_.c_str(), (unsigned long long)b.size(),
              (unsigned long long)op.pc);

    // rdValue and effAddr share one array, rdValue first. A
    // non-writer's rdValue (0) is predicted or stored like any other,
    // so replay need not mask it; its pc's last value is 0.
    unsigned code = kValueStored;
    u64 value = op.rdValue;
    if (value == e.value[kValueLast])
        code = kValueLast;
    else if (value == e.value[kValueStride])
        code = kValueStride;
    else if (value == op.rs1Value + e.value[kValueDelta])
        code = kValueDelta;
    else
        store(b.values_, value);
    control |= code;
    if (writes) {
        ++stats.rdValue.records;
        if (code != kValueStored) {
            ++stats.rdValue.hits;
            ++stats.rdValueByCode[code - 1];
        }
    }
    if (slots.mem) {
        ++stats.effAddr.records;
        if (op.effAddr == op.rs1Value + e.disp) {
            ++stats.effAddr.hits;
        } else {
            control |= kAddrMissFlag;
            store(b.values_, op.effAddr);
        }
    }
    if (op.taken) {
        ++stats.target.records;
        if (op.nextPc == e.target) {
            ++stats.target.hits;
        } else {
            control |= kTargetMissFlag;
            store(b.targets_, static_cast<u32>(op.nextPc));
        }
    }
    b.control_.push_back(static_cast<u8>(control));
    Predictor::update(e, op.rs1Value, op.rdValue, op.effAddr,
                      op.taken ? op.nextPc : e.target);
    regs[slots.dst] = op.rdValue;
    pc_ = op.nextPc;
}

u64
TraceBuffer::encodedBytes() const
{
    auto bytes = [](const auto &v) { return v.size() * sizeof(v[0]); };
    return bytes(control_) + bytes(decode_) + bytes(values_) +
           bytes(targets_) + sizeof(*this) + name_.capacity();
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
    sizes.control = bytes(control_);
    sizes.decode = bytes(decode_);
    sizes.values = bytes(values_);
    sizes.targets = bytes(targets_);
    return sizes;
}

TraceBuffer::Cursor::Cursor(const TraceBuffer &buffer, u64 max_insts)
    : buffer_(&buffer), limit_(std::min(buffer.size(), max_insts)),
      pc_(buffer.firstPc_)
{
}

inline bool
TraceBuffer::Cursor::derive(DynOp &out)
{
    if (pos_ >= limit_)
        return false;
    const TraceBuffer &b = *buffer_;
    u64 index = pos_++;
    const unsigned control = b.control_[index];
    PredictorEntry &e = predictor_.lookup(pc_);
    if (control & kDecodeMissFlag) [[unlikely]]
        Predictor::redecode(e, b.decode_[decodePos_++]);
    const Decode d = e.decode;
    const Slots slots = e.slots;
    auto &regs = regs_;
    bool taken = control & kTakenFlag;

    out.seq = b.baseSeq_ + index;
    out.pc = pc_;
    out.op = static_cast<isa::Opcode>(d.op);
    out.rd = d.rd;
    out.rs1 = d.rs1;
    out.rs2 = d.rs2;
    out.taken = taken;
    // Results go through locals: a store to regs might alias out.
    const u64 rs1_value = regs[slots.src1];
    const u64 rs2_value = regs[slots.src2];
    // Thanks to the pads every compact-array read is in bounds; a
    // field the record does not store is read but not used, and its
    // array does not advance.
    unsigned code = control & kValueCodeMask;
    bool rd_stored = code == kValueStored;
    bool addr_stored = control & kAddrMissFlag;
    bool target_stored = control & kTargetMissFlag;
    const u64 *words = b.values_.data() + valuePos_;
    u64 predicted = e.value[code] + (rs1_value & -u64{code == kValueDelta});
    const u64 rd_value = pick(rd_stored, words[0], predicted);
    const u64 eff_addr =
        pick(addr_stored, words[rd_stored], rs1_value + e.disp) &
        -u64{slots.mem};
    const u64 target =
        pick(target_stored, b.targets_[targetPos_], e.target);
    const u64 next_pc = taken ? target : pc_ + 1;
    valuePos_ += rd_stored + addr_stored;
    targetPos_ += target_stored;
    out.rs1Value = rs1_value;
    out.rs2Value = rs2_value;
    out.rdValue = rd_value;
    out.effAddr = eff_addr;
    out.nextPc = next_pc;
    Predictor::update(e, rs1_value, rd_value, eff_addr, target);
    pc_ = next_pc;
    regs[slots.dst] = rd_value;
    return true;
}

bool
TraceBuffer::Cursor::next(DynOp &out)
{
    return derive(out);
}

size_t
TraceBuffer::Cursor::fill(std::span<DynOp> out)
{
    size_t n = 0;
    while (n < out.size() && derive(out[n]))
        ++n;
    return n;
}

} // namespace carf::emu
