#include "emu/emulator.hh"

#include <cstring>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace carf::emu
{

using isa::Opcode;

namespace
{

double
bitsToDouble(u64 raw)
{
    double d;
    std::memcpy(&d, &raw, sizeof(d));
    return d;
}

u64
doubleToBits(double d)
{
    u64 raw;
    std::memcpy(&raw, &d, sizeof(raw));
    return raw;
}

} // namespace

Emulator::Emulator(isa::Program program, std::string name, u64 max_insts)
    : program_(std::move(program)), name_(std::move(name)),
      maxInsts_(max_insts)
{
    for (const auto &seg : program_.dataSegments())
        memory_.load(seg.base, seg.bytes);
}

double
Emulator::fpReg(unsigned idx) const
{
    return bitsToDouble(fpRegs_.at(idx));
}

void
Emulator::setIntReg(unsigned idx, u64 value)
{
    if (idx != 0)
        intRegs_[idx] = value;
}

inline bool
Emulator::emit(DynOp &out)
{
    if (halted_ || executed_ >= maxInsts_) {
        halted_ = true;
        return false;
    }
    if (pc_ >= program_.size()) {
        // Running off the end of the program is a kernel bug.
        panic("emulator '%s': pc %llu past end of program (%zu insts)",
              name_.c_str(), static_cast<unsigned long long>(pc_),
              program_.size());
    }
    step(out);
    ++executed_;
    if (out.op == Opcode::HALT)
        halted_ = true;
    return true;
}

bool
Emulator::next(DynOp &out)
{
    return emit(out);
}

size_t
Emulator::fill(std::span<DynOp> out)
{
    size_t n = 0;
    while (n < out.size() && emit(out[n]))
        ++n;
    return n;
}

void
Emulator::step(DynOp &out)
{
    // emit() has checked pc_ against the program's end.
    const isa::Instruction &inst = program_.code()[pc_];
    const isa::OpInfo &info = inst.info();

    out.seq = executed_;
    out.pc = pc_;
    out.op = inst.op;
    out.rd = inst.rd;
    out.rs1 = inst.rs1;
    out.rs2 = inst.rs2;

    // Resolve sources.
    u64 s1 = 0, s2 = 0;
    if (info.rs1Class == isa::RegClass::Int)
        s1 = intRegs_[inst.rs1];
    else if (info.rs1Class == isa::RegClass::Fp)
        s1 = fpRegs_[inst.rs1];
    if (info.rs2Class == isa::RegClass::Int)
        s2 = intRegs_[inst.rs2];
    else if (info.rs2Class == isa::RegClass::Fp)
        s2 = fpRegs_[inst.rs2];
    out.rs1Value = s1;
    out.rs2Value = s2;

    u64 imm = static_cast<u64>(inst.imm);
    u64 next_pc = pc_ + 1;
    u64 result = 0;
    u64 rd_value = 0;
    Addr eff_addr = 0;
    bool taken = false;
    bool has_result = info.rdClass != isa::RegClass::None;

    switch (inst.op) {
      case Opcode::ADD: result = s1 + s2; break;
      case Opcode::SUB: result = s1 - s2; break;
      case Opcode::AND: result = s1 & s2; break;
      case Opcode::OR: result = s1 | s2; break;
      case Opcode::XOR: result = s1 ^ s2; break;
      case Opcode::SLL: result = s1 << (s2 & 63); break;
      case Opcode::SRL: result = s1 >> (s2 & 63); break;
      case Opcode::SRA:
        result = static_cast<u64>(static_cast<i64>(s1) >> (s2 & 63));
        break;
      case Opcode::SLT:
        result = static_cast<i64>(s1) < static_cast<i64>(s2);
        break;
      case Opcode::SLTU: result = s1 < s2; break;
      case Opcode::MUL: result = s1 * s2; break;
      case Opcode::DIVX:
        result = s2 == 0 ? ~u64{0}
                         : static_cast<u64>(static_cast<i64>(s1) /
                                            static_cast<i64>(s2));
        break;
      case Opcode::REMX:
        result = s2 == 0 ? s1
                         : static_cast<u64>(static_cast<i64>(s1) %
                                            static_cast<i64>(s2));
        break;
      case Opcode::ADDI: result = s1 + imm; break;
      case Opcode::ANDI: result = s1 & imm; break;
      case Opcode::ORI: result = s1 | imm; break;
      case Opcode::XORI: result = s1 ^ imm; break;
      case Opcode::SLLI: result = s1 << (imm & 63); break;
      case Opcode::SRLI: result = s1 >> (imm & 63); break;
      case Opcode::SRAI:
        result = static_cast<u64>(static_cast<i64>(s1) >> (imm & 63));
        break;
      case Opcode::SLTI:
        result = static_cast<i64>(s1) < inst.imm;
        break;
      case Opcode::MOVI: result = imm; break;

      case Opcode::LD:
      case Opcode::LW:
      case Opcode::LB: {
        eff_addr = s1 + imm;
        u64 raw = memory_.read(eff_addr, info.memBytes);
        result = info.memBytes == 8
                     ? raw
                     : signExtend(raw, info.memBytes * 8);
        break;
      }
      case Opcode::FLD:
        eff_addr = s1 + imm;
        result = memory_.read(eff_addr, 8);
        break;
      case Opcode::ST:
      case Opcode::SW:
      case Opcode::SB:
      case Opcode::FST:
        eff_addr = s1 + imm;
        memory_.write(eff_addr, s2, info.memBytes);
        break;

      case Opcode::BEQ: taken = s1 == s2; break;
      case Opcode::BNE: taken = s1 != s2; break;
      case Opcode::BLT:
        taken = static_cast<i64>(s1) < static_cast<i64>(s2);
        break;
      case Opcode::BGE:
        taken = static_cast<i64>(s1) >= static_cast<i64>(s2);
        break;
      case Opcode::BLTU: taken = s1 < s2; break;
      case Opcode::BGEU: taken = s1 >= s2; break;

      case Opcode::JAL:
        taken = true;
        result = pc_ + 1;
        next_pc = imm;
        break;
      case Opcode::JALR:
        taken = true;
        result = pc_ + 1;
        next_pc = s1 + imm;
        break;

      case Opcode::FADD:
        result = doubleToBits(bitsToDouble(s1) + bitsToDouble(s2));
        break;
      case Opcode::FSUB:
        result = doubleToBits(bitsToDouble(s1) - bitsToDouble(s2));
        break;
      case Opcode::FMUL:
        result = doubleToBits(bitsToDouble(s1) * bitsToDouble(s2));
        break;
      case Opcode::FDIV:
        result = doubleToBits(bitsToDouble(s1) / bitsToDouble(s2));
        break;
      case Opcode::FNEG:
        result = doubleToBits(-bitsToDouble(s1));
        break;
      case Opcode::FCVTIF:
        result = doubleToBits(static_cast<double>(static_cast<i64>(s1)));
        break;
      case Opcode::FCVTFI:
        result = static_cast<u64>(static_cast<i64>(bitsToDouble(s1)));
        break;
      case Opcode::FMOV:
        result = s1;
        break;

      case Opcode::NOP:
      case Opcode::HALT:
        break;

      default:
        panic("emulator: unimplemented opcode %u",
              static_cast<unsigned>(inst.op));
    }

    if (isa::isConditionalBranch(inst.op) && taken)
        next_pc = imm;

    if (has_result) {
        if (info.rdClass == isa::RegClass::Int) {
            setIntReg(inst.rd, result);
            rd_value = inst.rd == 0 ? 0 : result;
        } else {
            fpRegs_[inst.rd] = result;
            rd_value = result;
        }
    }

    out.rdValue = rd_value;
    out.effAddr = eff_addr;
    out.taken = taken;
    out.nextPc = next_pc;
    pc_ = next_pc;
}

} // namespace carf::emu
