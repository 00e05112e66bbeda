#include "core/fetch_stream.hh"

namespace carf::core
{

using emu::DynOp;
using isa::Opcode;

size_t
FetchStream::fillWarm(std::span<DynOp> out)
{
    FetchEntry entry;
    size_t n = 0;
    while (n < out.size() && next(entry))
        out[n++] = entry.op;
    return n;
}

BranchPredictors::BranchPredictors(const CoreParams &params)
    : gshare_(params.gshareHistoryBits),
      btb_(params.btbEntries),
      ras_(params.rasDepth)
{
}

void
BranchPredictors::predictBranch(const DynOp &op, FetchEntry &out)
{
    u64 pc = op.pc;

    if (isa::isConditionalBranch(op.op)) {
        out.isCondBranch = true;
        bool correct = true;
        bool pred = gshare_.predict(pc);
        gshare_.update(pc, op.taken);
        if (pred != op.taken) {
            correct = false;
        } else if (op.taken) {
            u64 target;
            bool hit = btb_.lookup(pc, target);
            if (!hit || target != op.nextPc)
                correct = false;
        }
        if (op.taken)
            btb_.update(pc, op.nextPc);
        out.predictedCorrect = correct;
        return;
    }

    if (op.op == Opcode::JAL) {
        if (op.rd != 0)
            ras_.push(pc + 1);
        u64 target;
        bool hit = btb_.lookup(pc, target);
        out.predictedCorrect = hit && target == op.nextPc;
        btb_.update(pc, op.nextPc);
        return;
    }

    if (op.op == Opcode::JALR) {
        u64 target = 0;
        bool predicted = false;
        if (op.rd == 0) {
            // Return-like: prefer the RAS.
            predicted = ras_.pop(target);
        }
        if (!predicted)
            predicted = btb_.lookup(pc, target);
        out.predictedCorrect = predicted && target == op.nextPc;
        btb_.update(pc, op.nextPc);
        return;
    }
}

} // namespace carf::core
