#include "core/pipeline.hh"

#include <algorithm>
#include <array>
#include <optional>

#include "common/logging.hh"
#include "regfile/baseline.hh"
#include "regfile/registry.hh"

namespace carf::core
{

using emu::DynOp;
using isa::Opcode;
using regfile::ValueType;

namespace
{

/** Instruction bytes per trace pc slot (word-addressed ISA). */
constexpr u64 instBytes = 4;
/** Fetch buffer capacity in instructions (per thread). */
constexpr size_t fetchBufferCap = 32;
/** Cycles without a commit before the simulator declares a bug. */
constexpr Cycle watchdogCycles = 200000;

/**
 * Minimum cycles of guaranteed stall before an instruction is parked
 * out of the issue scan. Short waits are cheaper to re-scan than to
 * round-trip through the heap; the payoff is cache-miss dependency
 * chains parking for tens of cycles.
 */
constexpr Cycle parkThreshold = 8;

/** Min-heap order for the parked-instruction heap (by wake cycle). */
struct ParkOrder
{
    template <typename Entry>
    bool
    operator()(const Entry &a, const Entry &b) const
    {
        return a.first > b.first;
    }
};

/** Age order of in-flight instructions (seq is program order). */
bool
olderThan(const InFlightInst *a, const InFlightInst *b)
{
    return a->op.seq < b->op.seq;
}

/**
 * Salt a trace pc with the thread id. All traces are linked at pc 0,
 * so without salting every thread would alias in the shared
 * predictor/BTB/I-cache index bits; the salt stands in for the
 * distinct code addresses real processes would have. Low bits are
 * perturbed too, so the *index* bits differ. Thread 0's salt is zero.
 */
u64
saltedPc(unsigned tid, u64 pc)
{
    return pc + u64{tid} * 0x10000405ull;
}

/**
 * Salt a data effective address with the thread id before it reaches
 * the shared caches. Every thread runs in its own functional memory,
 * so equal addresses in two threads are distinct data and must not
 * hit each other's lines. The salt lifts each thread far above every
 * code and data range (bit 40) and shifts it by five 4 KiB pages so
 * shared-cache set indices differ too. Thread 0's salt is zero.
 * Register values and the register file's noteAddress() stay
 * unsalted: value similarity across threads is the real §6 sharing.
 */
u64
saltedAddr(unsigned tid, u64 addr)
{
    return addr + u64{tid} * ((u64{1} << 40) + 0x5000);
}

/**
 * One SMT thread's front end: pulls the thread's records, salts their
 * code addresses, and predicts them in the shared predictors. The
 * record then flows through the core exactly like a solo stream
 * (thread 0's salt is zero, so a one-thread core predicts exactly
 * like PredictingFetchStream).
 */
class SaltedFetchStream final : public FetchStream
{
  public:
    SaltedFetchStream(emu::TraceSource &source,
                      BranchPredictors &predictors, unsigned tid)
        : source_(&source), predictors_(&predictors), tid_(tid)
    {
    }

    bool
    next(FetchEntry &out) override
    {
        if (!source_->next(out.op))
            return false;
        out.op.pc = saltedPc(tid_, out.op.pc);
        out.op.nextPc = saltedPc(tid_, out.op.nextPc);
        predictors_->predict(out.op, out);
        return true;
    }

    std::string name() const override { return source_->name(); }

  private:
    emu::TraceSource *source_;
    BranchPredictors *predictors_;
    unsigned tid_;
};

/**
 * Validate the thread count against the register pools before any
 * structure is sized from it.
 */
unsigned
checkedThreads(const CoreParams &params, unsigned num_threads)
{
    if (num_threads < 1)
        fatal("Pipeline: need at least one hardware thread");
    if (params.physIntRegs <= isa::numArchRegs * num_threads ||
        params.physFpRegs <= isa::numArchRegs * num_threads) {
        fatal("Pipeline: %u thread(s) need more than %u physical "
              "registers per class",
              num_threads, isa::numArchRegs * num_threads);
    }
    // An instruction may need one register file read per source
    // operand in a single cycle; fewer than two ports per file would
    // deadlock two-source consumers of non-bypassable operands.
    if (params.intRfReadPorts < 2 || params.fpRfReadPorts < 2)
        fatal("Pipeline: at least 2 read ports per register file "
              "are required");
    return num_threads;
}

/**
 * Per-thread issue-queue share cap: a dependence-limited thread must
 * not clog the shared scheduler and starve its partners (each
 * partner keeps at least issue-width slots available).
 */
unsigned
iqShareCap(unsigned capacity, unsigned issue_width, unsigned threads)
{
    unsigned reserve = issue_width * (threads - 1);
    return capacity > reserve ? capacity - reserve : 1;
}

} // namespace

Pipeline::Thread::Thread(unsigned rob_capacity, unsigned lsq_capacity)
    : rob(rob_capacity), lsq(lsq_capacity), fetchBuffer(fetchBufferCap)
{
    dispatched.reserve(rob_capacity);
    waiting.reserve(rob_capacity);
    pendingWb.reserve(rob_capacity);
    parked.reserve(rob_capacity);
}

Pipeline::Pipeline(const CoreParams &params, unsigned num_threads)
    : params_(params),
      numThreads_(checkedThreads(params, num_threads)),
      intFreeList_(params.physIntRegs, isa::numArchRegs * num_threads),
      fpFreeList_(params.physFpRegs, isa::numArchRegs * num_threads),
      intTags_(params.physIntRegs),
      fpTags_(params.physFpRegs),
      intIq_(params.intIqSize),
      fpIq_(params.fpIqSize),
      intIqCap_(iqShareCap(params.intIqSize, params.issueWidth,
                           num_threads)),
      fpIqCap_(iqShareCap(params.fpIqSize, params.issueWidth,
                          num_threads)),
      icountOrder_(num_threads),
      memory_(params.memory)
{
    intRf_ = regfile::makeRegFile(params_.regFileBackend,
                                  params_.regFileParams(), "intRf");
    fpRf_ = std::make_unique<regfile::BaselineRegFile>(
        "fpRf", params_.physFpRegs);
    if (numThreads_ > 1)
        intRf_->setThreadCount(numThreads_);

    // Thread t's architectural registers start mapped to tags
    // [32t, 32t + 32), live with value zero (matching the emulator's
    // initial state).
    threads_.reserve(numThreads_);
    for (unsigned t = 0; t < numThreads_; ++t) {
        threads_.emplace_back(params_.robSize / numThreads_,
                              params_.lsqSize / numThreads_);
        Thread &thread = threads_.back();
        for (unsigned i = 0; i < isa::numArchRegs; ++i) {
            u32 tag = t * isa::numArchRegs + i;
            thread.intRat[i] = tag;
            thread.fpRat[i] = tag;
            intRf_->write(tag, 0);
            fpRf_->write(tag, 0);
        }
    }
    intRf_->clearAccessCounts();
    fpRf_->clearAccessCounts();
}

Pipeline::~Pipeline() = default;

void
Pipeline::requireSolo(const char *what) const
{
    if (numThreads_ != 1)
        panic("Pipeline::%s: one-thread cores only (this core has %u "
              "threads)", what, numThreads_);
}

u64
Pipeline::archIntReg(unsigned idx) const
{
    if (idx == 0)
        return 0;
    return intRf_->peekValue(threads_[0].intRat[idx]);
}

u64
Pipeline::archFpReg(unsigned idx) const
{
    return fpRf_->peekValue(threads_[0].fpRat[idx]);
}

void
Pipeline::gatherSources(const InFlightInst &inst, SourceView &s1,
                        SourceView &s2) const
{
    s1 = SourceView{};
    s2 = SourceView{};
    if (inst.src1Tag != invalidIndex) {
        s1.used = true;
        s1.tag = inst.src1Tag;
        s1.isFp = inst.src1IsFp;
        s1.value = inst.op.rs1Value;
    }
    if (inst.src2Tag != invalidIndex) {
        s2.used = true;
        s2.tag = inst.src2Tag;
        s2.isFp = inst.src2IsFp;
        s2.value = inst.op.rs2Value;
    }
}

FetchStream &
Pipeline::serialStream(emu::TraceSource &source)
{
    if (!serialStream_) {
        serialStream_ = std::make_unique<PredictingFetchStream>(
            source, params_);
    } else {
        serialStream_->rebind(source);
    }
    return *serialStream_;
}

void
Pipeline::sortIcount()
{
    // Insertion sort: stable, allocation-free, and T is tiny.
    for (unsigned t = 0; t < numThreads_; ++t) {
        unsigned key = threads_[t].iqCount;
        unsigned pos = t;
        while (pos > 0 && threads_[icountOrder_[pos - 1]].iqCount > key) {
            icountOrder_[pos] = icountOrder_[pos - 1];
            --pos;
        }
        icountOrder_[pos] = t;
    }
}

template <bool Smt>
void
Pipeline::doCommit(Cycle cur)
{
    (void)cur;
    unsigned budget = params_.commitWidth;
    unsigned threads = Smt ? numThreads_ : 1;
    for (unsigned off = 0; off < threads && budget > 0; ++off) {
        Thread &thread = threads_[Smt ? rotated(off) : 0];
        while (budget > 0 && !thread.rob.empty()) {
            InFlightInst &head = thread.rob.head();
            if (head.state != InstState::WrittenBack)
                break;

            if (head.hasDest()) {
                if (head.destIsFp) {
                    fpRf_->release(head.oldDestTag);
                    fpFreeList_.release(head.oldDestTag);
                } else {
                    intRf_->release(head.oldDestTag);
                    intFreeList_.release(head.oldDestTag);
                }
            }
            if (head.op.isLoad())
                thread.lsq.commitLoad();
            else if (head.op.isStore())
                thread.lsq.commitStore(head.op.seq);

            ++thread.result.committedInsts;
            ++committedTotal_;
            // ROB-interval epochs for the (shared) Short file follow
            // aggregate commit progress over the whole ROB.
            ++committedSinceInterval_;
            if (committedSinceInterval_ >= params_.robSize) {
                committedSinceInterval_ = 0;
                intRf_->onRobInterval();
            }

            thread.rob.popHead();
            --budget;
        }
    }
}

template <bool Smt>
bool
Pipeline::tryWriteback(Thread &thread, unsigned tid, InFlightInst &inst,
                       Cycle cur, unsigned &int_ports,
                       unsigned &fp_ports, bool &force_grant_used)
{
    if (inst.completeCycle > cur)
        return false;

    if (!inst.hasDest()) {
        inst.state = InstState::WrittenBack;
        inst.wbCycle = cur;
        return true;
    }

    if (inst.destIsFp) {
        if (fp_ports == 0)
            return false;
        fpRf_->write(inst.destTag, inst.op.rdValue);
        --fp_ports;
        TagInfo &ti = tagInfo(inst.destTag, true);
        ti.state = TagInfo::State::Done;
        ti.rfReadableCycle = cur + 1;
        inst.state = InstState::WrittenBack;
        inst.wbCycle = cur;
        return true;
    }

    if (int_ports == 0)
        return false;
    if constexpr (Smt)
        intRf_->setActiveThread(tid);
    regfile::WriteAccess access =
        intRf_->write(inst.destTag, inst.op.rdValue);
    if (access.stalled) {
        // Long file exhausted. If this is the ROB head nothing can
        // free an entry: pseudo-deadlock recovery (§3.2). Under SMT
        // every stalled head wants the grant; at most one per cycle
        // goes to the first in rotating thread order, and the
        // rotation guarantees every head periodically walks first.
        // (A one-thread core takes its Long counters from the model.)
        bool at_head = &inst == &thread.rob.head();
        if constexpr (Smt)
            ++thread.result.longAllocStalls;
        if (at_head && !force_grant_used) {
            force_grant_used = true;
            access = intRf_->writeForced(inst.destTag, inst.op.rdValue);
            if constexpr (Smt) {
                ++thread.result.recoveries;
                thread.headStallWait = 0;
            }
        } else {
            if (Smt && at_head) {
                ++thread.headStallWait;
                maxRecoveryWait_ =
                    std::max(maxRecoveryWait_, thread.headStallWait);
            }
            inst.wbStalledOnLong = true;
            return false; // port not consumed; retry next cycle
        }
    } else if (Smt && &inst == &thread.rob.head()) {
        thread.headStallWait = 0;
    }
    --int_ports;
    TagInfo &ti = tagInfo(inst.destTag, false);
    ti.state = TagInfo::State::Done;
    ti.rfReadableCycle = cur + params_.intWbStages;
    inst.state = InstState::WrittenBack;
    inst.wbCycle = cur;
    return true;
}

template <bool Smt>
void
Pipeline::doWriteback(Cycle cur)
{
    unsigned int_ports = params_.intRfWritePorts;
    unsigned fp_ports = params_.fpRfWritePorts;
    bool force_grant_used = false;

    // pendingWb is the Issued subset of the thread's ROB in age
    // order, so this visits exactly the instructions a full-ROB scan
    // would, in the same order, and makes identical port-arbitration
    // decisions.
    unsigned threads = Smt ? numThreads_ : 1;
    for (unsigned off = 0; off < threads; ++off) {
        unsigned tid = Smt ? rotated(off) : 0;
        Thread &thread = threads_[tid];
        std::vector<InFlightInst *> &pending = thread.pendingWb;
        size_t keep = 0;
        for (size_t i = 0; i < pending.size(); ++i) {
            if (!tryWriteback<Smt>(thread, tid, *pending[i], cur,
                                   int_ports, fp_ports,
                                   force_grant_used))
                pending[keep++] = pending[i];
        }
        pending.resize(keep);
    }
}

void
Pipeline::wakeWaiters(Thread &thread, const InFlightInst &producer)
{
    // The consumers' checks fail until exec reaches the producer's
    // completion, exactly as for a parked consumer of an issued one.
    Cycle wake = producer.completeCycle - params_.regReadStages;
    size_t keep = 0;
    for (const Waiter &w : thread.waiting) {
        if (w.tag != producer.destTag || w.isFp != producer.destIsFp) {
            thread.waiting[keep++] = w;
            continue;
        }
        InFlightInst &consumer = *w.inst;
        thread.parked.emplace_back(wake, &consumer);
        std::push_heap(thread.parked.begin(), thread.parked.end(),
                       ParkOrder{});
        if (consumer.hasDest()) {
            TagInfo &ti = tagInfo(consumer.destTag, consumer.destIsFp);
            ti.earliestIssue = std::max(ti.earliestIssue, wake);
        }
    }
    thread.waiting.resize(keep);
}

void
Pipeline::unpark(Thread &thread, InFlightInst *inst)
{
    if (!inst->writesIntDest())
        ++thread.dispatchedNonIntWriters;
    thread.dispatched.insert(
        std::upper_bound(thread.dispatched.begin(),
                         thread.dispatched.end(), inst, olderThan),
        inst);
}

template <bool Smt>
void
Pipeline::doIssue(Cycle cur)
{
    unsigned budget = params_.issueWidth;
    unsigned int_fu = params_.intFuCount;
    unsigned fp_fu = params_.fpFuCount;
    unsigned mem_ports = memory_.dl1Ports();
    unsigned int_read_ports = params_.intRfReadPorts;
    unsigned fp_read_ports = params_.fpRfReadPorts;

    bool stall_int_writers = intRf_->shouldStallIssue();

    for (Thread &thread : threads_) {
        std::vector<ParkedInst> &parked = thread.parked;
        if (parked.empty())
            continue;
        if (stall_int_writers) {
            // The Long issue-stall path inspects every dispatched
            // integer writer (long_stall_seen): restore the full scan.
            for (auto &entry : parked)
                unpark(thread, entry.second);
            parked.clear();
        } else {
            while (!parked.empty() && parked.front().first <= cur) {
                unpark(thread, parked.front().second);
                std::pop_heap(parked.begin(), parked.end(), ParkOrder{});
                parked.pop_back();
            }
        }
    }

    Cycle exec = cur + params_.regReadStages;

    unsigned threads = Smt ? numThreads_ : 1;
    for (unsigned off = 0; off < threads && budget > 0; ++off) {
        unsigned tid = Smt ? rotated(off) : 0;
        Thread &thread = threads_[tid];
        std::vector<InFlightInst *> &dispatched = thread.dispatched;

        // dispatched is the Dispatched subset of the thread's ROB in
        // age order: same candidates, same order, same arbitration
        // decisions as a full-ROB scan, without touching
        // issued/completed entries.

        // Integer writers blocked by the free-Long stall this cycle.
        bool long_stall_seen = false;
        // The head cannot change during issue (commit ran earlier).
        const InFlightInst *head =
            thread.rob.empty() ? nullptr : &thread.rob.head();
        size_t scan = 0;
        size_t keep = 0;
        size_t size = dispatched.size();
        unsigned non_int_left = thread.dispatchedNonIntWriters;
        for (; scan < size && budget > 0; ++scan) {
            // SMT cores spend long stretches in the Long issue stall.
            // Once it is recorded for the thread, a blocked integer
            // writer has nothing left to decide (the checks below
            // would all end in `continue`); with no other kind of
            // instruction left (the ROB head comes first), the rest of
            // the scan is moot.
            if (Smt && long_stall_seen && non_int_left == 0)
                break;
            InFlightInst &inst = *dispatched[scan];
            // Assume the instruction stays dispatched; the issue path
            // at the bottom un-keeps it.
            dispatched[keep++] = &inst;
            if constexpr (Smt) {
                bool int_writer = inst.writesIntDest();
                if (!int_writer)
                    --non_int_left;
                if (long_stall_seen && int_writer && &inst != head)
                    continue;
            }

            bool fpq = usesFpQueue(inst.op.op);
            bool is_load = inst.op.isLoad();
            bool is_store = inst.op.isStore();
            bool is_mem = is_load || is_store;

            if (fpq ? fp_fu == 0 : int_fu == 0)
                continue;
            if (is_mem && mem_ports == 0)
                continue;
            // The ROB head is exempt from the free-Long issue stall:
            // stalling it would deadlock (younger completed
            // instructions hold Long entries they can only release by
            // committing behind the head). The head's writeback can
            // always fall back to the forced-recovery path. (Rename
            // runs after issue, so every candidate here was renamed
            // in an earlier cycle.)
            if (stall_int_writers && inst.writesIntDest() &&
                &inst != head) {
                long_stall_seen = true;
                continue;
            }
            if (inst.renameCycle >= cur)
                continue; // renamed this very cycle

            SourceView s1, s2;
            gatherSources(inst, s1, s2);

            OperandSource so1 = OperandSource::None;
            OperandSource so2 = OperandSource::None;
            // First cycle the failed check below could pass again;
            // cur+1 when the producer's timing is not yet pinned down.
            Cycle retry = 0;
            // The source whose producer has not issued, if that is
            // what failed the check.
            const SourceView *unissued = nullptr;
            auto check_src = [&](const SourceView &s, OperandSource &out) {
                if (!s.used) {
                    out = OperandSource::None;
                    return true;
                }
                const TagInfo &ti = tagInfo(s.tag, s.isFp);
                if (ti.state == TagInfo::State::Pending) {
                    // The producer has not issued; it cannot do so
                    // before its own parked bound, and the value stays
                    // unavailable until the check after it does.
                    retry = std::max(cur + 1, ti.earliestIssue);
                    unissued = &s;
                    return false;
                }
                if (exec < ti.completeCycle) {
                    // completeCycle is fixed at issue: the check keeps
                    // failing until exec reaches it.
                    retry = ti.completeCycle - params_.regReadStages;
                    return false;
                }
                unsigned window = s.isFp ? params_.fpBypassWindow()
                                         : params_.intBypassWindow();
                if (exec < ti.completeCycle + window) {
                    out = OperandSource::Bypass;
                    return true;
                }
                if (ti.state != TagInfo::State::Done ||
                    exec - 1 < ti.rfReadableCycle) {
                    // Past the bypass window: only the file can supply
                    // the value, first readable at rfReadableCycle
                    // (known once written back, i.e. state Done).
                    retry = ti.state == TagInfo::State::Done
                                ? ti.rfReadableCycle + 1 -
                                      params_.regReadStages
                                : cur + 1;
                    return false; // value in the writeback gap
                }
                out = OperandSource::RegFile;
                return true;
            };
            if (!check_src(s1, so1) || !check_src(s2, so2)) {
                if (Smt && unissued && stall_int_writers &&
                    !inst.writesIntDest()) {
                    // Wait for the producer's issue (Thread::waiting).
                    --keep;
                    --thread.dispatchedNonIntWriters;
                    thread.waiting.push_back(
                        {unissued->tag, unissued->isFp, &inst});
                } else if (!stall_int_writers &&
                           retry > cur + parkThreshold) {
                    // The check cannot pass before `retry`: park the
                    // instruction out of the scan until then, and let
                    // its consumers bound themselves against it.
                    // Skipped in stall cycles, which restore every
                    // parked instruction anyway.
                    --keep;
                    if (!inst.writesIntDest())
                        --thread.dispatchedNonIntWriters;
                    thread.parked.emplace_back(retry, &inst);
                    std::push_heap(thread.parked.begin(),
                                   thread.parked.end(), ParkOrder{});
                    if (inst.hasDest()) {
                        tagInfo(inst.destTag, inst.destIsFp)
                            .earliestIssue = retry;
                    }
                }
                continue;
            }

            unsigned need_int_rd = 0, need_fp_rd = 0;
            auto count_port = [&](const SourceView &s, OperandSource so) {
                if (so != OperandSource::RegFile)
                    return;
                if (s.isFp)
                    ++need_fp_rd;
                else
                    ++need_int_rd;
            };
            count_port(s1, so1);
            count_port(s2, so2);
            if (need_int_rd > int_read_ports || need_fp_rd > fp_read_ports)
                continue;
            // The model may impose its own per-cycle port limit below
            // the core's (port-reduction backends); a refusal is a
            // conflict stall and the instruction retries next cycle.
            if (need_int_rd != 0 && !intRf_->canServeReads(need_int_rd))
                continue;

            Cycle latency = inst.op.info().latency;
            if (is_load) {
                Cycle dep_ready = 0;
                if (!thread.lsq.loadReadyCycle(inst.op.seq,
                                               inst.op.effAddr,
                                               inst.op.info().memBytes,
                                               dep_ready)) {
                    continue;
                }
                if (dep_ready > exec)
                    continue;
                latency = 1 + memory_.dataAccess(
                                  saltedAddr(tid, inst.op.effAddr));
            } else if (is_store) {
                latency = 1;
                memory_.dataAccess(saltedAddr(tid, inst.op.effAddr));
            }

            // --- commit to issuing this instruction ---
            --keep; // leaves the dispatched list
            if (!inst.writesIntDest())
                --thread.dispatchedNonIntWriters;
            --budget;
            if (fpq)
                --fp_fu;
            else
                --int_fu;
            if (is_mem)
                --mem_ports;
            int_read_ports -= need_int_rd;
            fp_read_ports -= need_fp_rd;
            if (need_int_rd != 0)
                intRf_->consumeReadPorts(need_int_rd);

            inst.state = InstState::Issued;
            inst.issueCycle = cur;
            inst.completeCycle = exec + latency;
            (fpq ? fpIq_ : intIq_).remove();
            if constexpr (Smt) {
                --thread.iqCount;
                --(fpq ? thread.fpIqCount : thread.intIqCount);
            }

            // Issue order across cycles is not age order, so keep the
            // writeback list sorted by seq (= age) as entries arrive.
            thread.pendingWb.insert(
                std::upper_bound(thread.pendingWb.begin(),
                                 thread.pendingWb.end(), &inst,
                                 olderThan),
                &inst);

            if (inst.hasDest()) {
                TagInfo &ti = tagInfo(inst.destTag, inst.destIsFp);
                ti.state = TagInfo::State::Issued;
                ti.completeCycle = inst.completeCycle;
                ti.rfReadableCycle = ~Cycle{0};
                if (!thread.waiting.empty())
                    wakeWaiters(thread, inst);
            }

            RunResult &result = thread.result;
            auto consume_src = [&](const SourceView &s, OperandSource so) {
                if (!s.used)
                    return;
                result.bypass.record(so, s.isFp);
                if (so == OperandSource::RegFile) {
                    regfile::RegisterFile &rf = s.isFp ? *fpRf_ : *intRf_;
                    regfile::ReadAccess read = rf.read(s.tag);
                    if (read.value != s.value) {
                        panic("operand mismatch: thread %u seq %llu tag "
                              "%u rf=%llx trace=%llx",
                              tid, (unsigned long long)inst.op.seq,
                              s.tag, (unsigned long long)read.value,
                              (unsigned long long)s.value);
                    }
                }
            };
            consume_src(s1, so1);
            consume_src(s2, so2);

            // Table 4: source operand type mix over integer operands,
            // and the §6 clustering estimate (steer by result type; a
            // source of another type crosses clusters).
            if (intRf_->hasValueTaxonomy()) {
                bool has_simple = false, has_short = false,
                     has_long = false;
                auto type_of = [&](const SourceView &s) {
                    return intRf_->classifyPeek(s.value);
                };
                auto mix_src = [&](const SourceView &s) {
                    if (!s.used || s.isFp)
                        return;
                    switch (type_of(s)) {
                      case ValueType::Simple: has_simple = true; break;
                      case ValueType::Short: has_short = true; break;
                      case ValueType::Long: has_long = true; break;
                    }
                };
                mix_src(s1);
                mix_src(s2);
                result.operandMix.record(has_simple, has_short, has_long);

                // Clustering estimate: steer the instruction to the
                // cluster holding (the majority of) its integer
                // operands; with two differing operands, prefer the
                // cluster of the result type so the writeback stays
                // local, and the other operand crosses.
                bool u1 = s1.used && !s1.isFp;
                bool u2 = s2.used && !s2.isFp;
                if (u1 && u2) {
                    ValueType t1 = type_of(s1);
                    ValueType t2 = type_of(s2);
                    if (t1 == t2) {
                        result.cluster.localOperands += 2;
                    } else {
                        ++result.cluster.localOperands;
                        ++result.cluster.crossOperands;
                    }
                } else if (u1 || u2) {
                    ++result.cluster.localOperands;
                }
            }

            if (is_mem) {
                if constexpr (Smt)
                    intRf_->setActiveThread(tid);
                intRf_->noteAddress(inst.op.effAddr);
            }
            if (is_store)
                thread.lsq.storeIssued(inst.op.seq, inst.completeCycle);

            if (inst.mispredicted) {
                thread.fetchResumeCycle = inst.completeCycle;
                thread.pendingRedirect = false;
            }
        }

        // Budget exhausted (or scan moot): keep the unexamined tail.
        if (keep != scan) {
            for (; scan < size; ++scan)
                dispatched[keep++] = dispatched[scan];
            dispatched.resize(keep);
        }
        if (long_stall_seen)
            ++thread.result.issueStallCycles;
    }
}

template <bool Smt>
void
Pipeline::doRename(Cycle cur)
{
    // ICOUNT: the least-clogging thread renames first, one
    // instruction per thread per pass, until the width is used or no
    // thread can make progress. A thread that fails stays blocked for
    // the rest of the cycle (renaming only consumes the resources it
    // checks), so each pass keeps just the threads that progressed.
    unsigned budget = params_.fetchWidth;
    unsigned active = 1;
    if constexpr (Smt) {
        sortIcount();
        active = numThreads_;
    }
    while (budget > 0 && active > 0) {
        unsigned still = 0;
        for (unsigned i = 0; i < active && budget > 0; ++i) {
            unsigned tid = Smt ? icountOrder_[i] : 0;
            Thread &thread = threads_[tid];
            if (thread.fetchBuffer.empty())
                continue;
            FetchedInst &fetched = thread.fetchBuffer.front();
            if (fetched.fetchCycle + params_.frontendDepth > cur)
                continue;
            if (thread.rob.full())
                continue;

            const DynOp &op = fetched.op;
            const isa::OpInfo &info = isa::opInfo(op.op);
            bool fpq = usesFpQueue(op.op);
            IssueQueue &iq = fpq ? fpIq_ : intIq_;
            if (iq.full())
                continue;
            if (Smt && (fpq ? thread.fpIqCount : thread.intIqCount) >=
                           (fpq ? fpIqCap_ : intIqCap_))
                continue;
            bool is_mem = op.isLoad() || op.isStore();
            if (is_mem && thread.lsq.full())
                continue;
            bool int_dest = op.writesIntReg();
            bool fp_dest = op.writesFpReg();
            if (int_dest && intFreeList_.empty())
                continue;
            if (fp_dest && fpFreeList_.empty())
                continue;

            InFlightInst &inst = thread.rob.push(op);
            inst.fetchCycle = fetched.fetchCycle;
            inst.renameCycle = cur;
            inst.mispredicted = fetched.mispredicted;

            if (info.rs1Class == isa::RegClass::Int) {
                if (op.rs1 != 0) {
                    inst.src1Tag = thread.intRat[op.rs1];
                    inst.src1IsFp = false;
                }
            } else if (info.rs1Class == isa::RegClass::Fp) {
                inst.src1Tag = thread.fpRat[op.rs1];
                inst.src1IsFp = true;
            }
            if (info.rs2Class == isa::RegClass::Int) {
                if (op.rs2 != 0) {
                    inst.src2Tag = thread.intRat[op.rs2];
                    inst.src2IsFp = false;
                }
            } else if (info.rs2Class == isa::RegClass::Fp) {
                inst.src2Tag = thread.fpRat[op.rs2];
                inst.src2IsFp = true;
            }

            if (int_dest || fp_dest) {
                std::array<u32, isa::numArchRegs> &rat =
                    int_dest ? thread.intRat : thread.fpRat;
                inst.oldDestTag = rat[op.rd];
                FreeList &free_list = int_dest ? intFreeList_ : fpFreeList_;
                inst.destTag = free_list.allocate();
                rat[op.rd] = inst.destTag;
                inst.destIsFp = fp_dest;
                TagInfo &ti = tagInfo(inst.destTag, fp_dest);
                ti.state = TagInfo::State::Pending;
                ti.earliestIssue = cur + 1;
            }

            thread.dispatched.push_back(&inst);
            if (!int_dest)
                ++thread.dispatchedNonIntWriters;
            iq.insert();
            if constexpr (Smt) {
                ++thread.iqCount;
                ++(fpq ? thread.fpIqCount : thread.intIqCount);
            }
            if (op.isLoad())
                thread.lsq.dispatchLoad(op.seq);
            else if (op.isStore())
                thread.lsq.dispatchStore(op.seq, op.effAddr, info.memBytes);

            thread.fetchBuffer.popFront();
            --budget;
            if constexpr (Smt)
                icountOrder_[still] = tid;
            ++still;
        }
        active = still;
    }
}

void
Pipeline::fetchThread(Cycle cur, unsigned tid, unsigned &budget)
{
    static_assert(instBytes > 0);
    Thread &thread = threads_[tid];
    if (thread.traceExhausted || thread.pendingRedirect ||
        cur < thread.fetchResumeCycle)
        return;

    unsigned line_shift = 6; // 64B fetch lines

    // One call consumes at most fetchWidth stream records (each
    // iteration pulls at most one, and at most fetchWidth iterations
    // make progress).
    while (budget > 0 && !thread.fetchBuffer.full()) {
        FetchEntry entry;
        if (thread.pendingFetchValid) {
            entry = thread.pendingFetch;
            thread.pendingFetchValid = false;
        } else if (!thread.stream->next(entry)) {
            thread.traceExhausted = true;
            return;
        }
        const DynOp &op = entry.op;

        u64 line = (op.pc * instBytes) >> line_shift;
        if (line != thread.lastFetchLine) {
            Cycle lat = memory_.instAccess(op.pc * instBytes);
            thread.lastFetchLine = line;
            if (lat > params_.memory.il1.hitLatency) {
                // I-cache miss: stash the instruction and stall.
                thread.pendingFetch = entry;
                thread.pendingFetchValid = true;
                thread.lastFetchLine = ~u64{0}; // re-check after refill
                thread.fetchResumeCycle = cur + lat;
                return;
            }
        }

        if (entry.isCondBranch) {
            ++thread.result.condBranches;
            if (!entry.predictedCorrect)
                ++thread.result.branchMispredicts;
        }
        bool correct = entry.predictedCorrect;

        thread.fetchBuffer.pushBack(FetchedInst{op, cur, !correct});
        --budget;

        if (!correct) {
            thread.pendingRedirect = true;
            return;
        }
        if (op.isBranch() && op.taken)
            return; // taken branch ends the fetch group
    }
}

template <bool Smt>
void
Pipeline::doFetch(Cycle cur)
{
    unsigned budget = params_.fetchWidth;
    if constexpr (!Smt) {
        fetchThread(cur, 0, budget);
        return;
    }
    // ICOUNT fetch: the least-clogging thread may use the full width;
    // leftover slots go to the others.
    sortIcount();
    for (unsigned off = 0; off < numThreads_ && budget > 0; ++off)
        fetchThread(cur, icountOrder_[off], budget);
}

void
Pipeline::warmUp(emu::TraceSource &source, u64 insts)
{
    warmUp(serialStream(source), insts);
}

void
Pipeline::warmUp(FetchStream &stream, u64 insts)
{
    WarmupScratch scratch;
    warmUpRange(stream, insts, scratch);
    finishWarmUp(scratch);
}

void
Pipeline::warmUpRange(FetchStream &stream, u64 insts,
                      WarmupScratch &scratch)
{
    requireSolo("warmUpRange");
    FetchEntry entry;
    for (u64 i = 0; i < insts && stream.next(entry); ++i) {
        const DynOp &op = entry.op;
        memory_.instAccess(op.pc * instBytes);
        if (op.isLoad() || op.isStore()) {
            memory_.dataAccess(op.effAddr);
            intRf_->noteAddress(op.effAddr);
        }
        if (op.writesIntReg()) {
            scratch.intVals[op.rd] = op.rdValue;
            scratch.intSet[op.rd] = true;
        } else if (op.writesFpReg()) {
            scratch.fpVals[op.rd] = op.rdValue;
            scratch.fpSet[op.rd] = true;
        }
    }
}

void
Pipeline::installWarmState(const WarmupScratch &scratch)
{
    // Install the fast-forwarded architectural values so the timed
    // window reads consistent register state.
    const Thread &thread = threads_[0];
    for (unsigned r = 0; r < isa::numArchRegs; ++r) {
        if (scratch.intSet[r]) {
            u32 tag = thread.intRat[r];
            intRf_->release(tag);
            regfile::WriteAccess access =
                intRf_->write(tag, scratch.intVals[r]);
            if (access.stalled)
                intRf_->writeForced(tag, scratch.intVals[r]);
        }
        if (scratch.fpSet[r]) {
            u32 tag = thread.fpRat[r];
            fpRf_->release(tag);
            fpRf_->write(tag, scratch.fpVals[r]);
        }
    }
}

void
Pipeline::finishWarmUp(const WarmupScratch &scratch)
{
    installWarmState(scratch);
    intRf_->clearAccessCounts();
    fpRf_->clearAccessCounts();
    threads_[0].result = RunResult{};
    committedTotal_ = 0;
}

void
Pipeline::resetForResume()
{
    Thread &thread = threads_[0];
    if (!thread.rob.empty() || !thread.fetchBuffer.empty() ||
        thread.pendingFetchValid)
        panic("resetForResume: lane still has work in flight");
    thread.traceExhausted = false;
    // Fetch pacing latches from the drained episode are stale; the
    // redirect latch is provably clear (it drops when the mispredicted
    // branch issues, and a drained ROB has issued everything), and the
    // I-miss stash is empty by active()'s definition.
    thread.fetchResumeCycle = 0;
    thread.lastFetchLine = ~u64{0};
    // No cycles elapse during a functional gap, but re-arm the
    // watchdog base so episode boundaries never look like hangs.
    lastProgressCycle_ = cycle_;
}

unsigned
Pipeline::classifyThread(const Thread &thread) const
{
    if (!thread.rob.empty()) {
        const InFlightInst &head = thread.rob.head();
        if (head.state == InstState::WrittenBack)
            return CycleAccounting::Commit;
        if (head.state == InstState::Issued) {
            if (head.wbStalledOnLong)
                return CycleAccounting::LongStall;
            if (head.completeCycle > cycle_)
                return head.op.isLoad() ? CycleAccounting::MemWait
                                        : CycleAccounting::ExecWait;
            return CycleAccounting::WbWait;
        }
        return thread.rob.full() ? CycleAccounting::RobFull
                                 : CycleAccounting::IssueBound;
    }
    if (!thread.fetchBuffer.empty())
        return CycleAccounting::FrontendFill;
    if (thread.pendingFetchValid)
        return CycleAccounting::IcacheWait;
    return CycleAccounting::FetchEmpty;
}

template <bool Smt>
void
Pipeline::accountCycles(Cycle n)
{
    if constexpr (!Smt) {
        Thread &thread = threads_[0];
        thread.result.cycleAccounting.counts[classifyThread(thread)] += n;
        return;
    }
    // Per thread (each thread's buckets sum to machine cycles) and
    // machine-level: the most-productive bucket across threads, so
    // any thread committing makes the machine cycle a Commit cycle.
    unsigned machine = CycleAccounting::FetchEmpty;
    for (Thread &thread : threads_) {
        unsigned b = classifyThread(thread);
        thread.result.cycleAccounting.counts[b] += n;
        machine = std::min(machine, b);
    }
    machineAccounting_.counts[machine] += n;
}

Cycle
Pipeline::quiescentUntil(Cycle cur) const
{
    Cycle next = ~Cycle{0};
    auto candidate = [&next](Cycle c) { next = std::min(next, c); };

    for (const Thread &thread : threads_) {
        // Commit: a written-back head commits this very cycle.
        if (!thread.rob.empty() &&
            thread.rob.head().state == InstState::WrittenBack)
            return 0;

        // Issue: any dispatched candidate gets scanned each cycle, and
        // a scan can consume model read-port budget or issue outright
        // — only a window whose waiting instructions are all *parked*
        // (with known wake cycles) is skippable.
        if (!thread.dispatched.empty())
            return 0;

        // A Long issue-stall cycle with parked instructions restores
        // the full scan and counts issueStallCycles per cycle: never
        // skip it.
        if (!thread.parked.empty() && intRf_->shouldStallIssue())
            return 0;

        // Fetch: eligible to pull a record right now — step. (A
        // redirect blocks fetch until the mispredicted branch issues,
        // which is bounded by the parked/writeback candidates below; a
        // full fetch buffer blocks until rename drains it, bounded
        // likewise.)
        bool can_fetch = !thread.traceExhausted &&
                         !thread.pendingRedirect &&
                         !thread.fetchBuffer.full();
        if (can_fetch) {
            if (cur >= thread.fetchResumeCycle)
                return 0;
            candidate(thread.fetchResumeCycle);
        }

        if (!thread.parked.empty())
            candidate(thread.parked.front().first);

        // Writeback: every issued instruction must complete strictly
        // later. An already-complete entry (including a Long-stalled
        // one) retries every cycle, and retries touch model counters
        // — step.
        for (const InFlightInst *inst : thread.pendingWb) {
            if (inst->completeCycle <= cur)
                return 0;
            candidate(inst->completeCycle);
        }

        // Rename: blocked on pipeline depth until a known cycle, or on
        // a structural resource (ROB/IQ/IQ share/LSQ/free list) whose
        // release needs a commit/issue/writeback event already bounded
        // above.
        if (!thread.fetchBuffer.empty()) {
            const FetchedInst &fetched = thread.fetchBuffer.front();
            Cycle ready = fetched.fetchCycle + params_.frontendDepth;
            if (ready > cur) {
                candidate(ready);
            } else {
                const DynOp &op = fetched.op;
                bool fpq = usesFpQueue(op.op);
                bool blocked =
                    thread.rob.full() || (fpq ? fpIq_ : intIq_).full() ||
                    (fpq ? thread.fpIqCount >= fpIqCap_
                         : thread.intIqCount >= intIqCap_) ||
                    ((op.isLoad() || op.isStore()) && thread.lsq.full()) ||
                    (op.writesIntReg() && intFreeList_.empty()) ||
                    (op.writesFpReg() && fpFreeList_.empty());
                if (!blocked)
                    return 0; // rename makes progress this cycle
            }
        }
    }

    if (next == ~Cycle{0})
        return 0; // nothing can bound the next event
    return next;
}

void
Pipeline::startWindow(CycleObserver *observer)
{
    for (Thread &thread : threads_) {
        thread.result = RunResult{};
        thread.result.config = params_.regFileBackend;
    }
    observer_ = observer;
    cycle_ = 0;
    rrCounter_ = 0;
    committedTotal_ = 0;
    lastCommitCount_ = 0;
    lastProgressCycle_ = 0;
    machineAccounting_ = CycleAccounting{};
    maxRecoveryWait_ = 0;
    liveLong_.reset();
    liveShort_.reset();
}

void
Pipeline::beginRun(const std::string &workload_name,
                   CycleObserver *observer)
{
    requireSolo("beginRun");
    startWindow(observer);
    threads_[0].result.workload = workload_name;
}

void
Pipeline::stepCycle(FetchStream &stream)
{
    threads_[0].stream = &stream;
    step();
}

void
Pipeline::step()
{
    Cycle cur = cycle_;

    // Exact idle-cycle skip: when every stage of every thread provably
    // no-ops until a known future cycle, jump the clock in O(1) and
    // advance the per-cycle statistics (buckets, occupancy samples,
    // the rotation start) by the same amounts the stepped loop would
    // have accumulated. The per-cycle observer (live-value oracle)
    // samples mid-stretch, so its presence forces stepping.
    if (fastPath_ && !observer_) {
        Cycle next = quiescentUntil(cur);
        if (next != 0) {
            // Never jump past the cycle the stepped loop's watchdog
            // would have fired on.
            Cycle cap = lastProgressCycle_ + watchdogCycles + 1;
            if (next > cap)
                next = cap;
            if (next > cur + 1) {
                Cycle span = next - cur;
                if (numThreads_ == 1)
                    accountCycles<false>(span);
                else
                    accountCycles<true>(span);
                regfile::RegisterFile::Occupancy occ =
                    intRf_->occupancy();
                liveLong_.sampleN(occ.liveLong, span);
                liveShort_.sampleN(occ.liveShort, span);
                RunResult &first = threads_[0].result;
                ++first.fastPathSkips;
                first.fastPathSkippedCycles += span;
                rrCounter_ = static_cast<unsigned>(
                    (rrCounter_ + span) % numThreads_);
                cycle_ = next;
                return;
            }
        }
    }

    if (numThreads_ == 1)
        stepStages<false>(cur);
    else
        stepStages<true>(cur);

    if (observer_ && params_.oracleSamplePeriod &&
        cur % params_.oracleSamplePeriod == 0) {
        observer_->sampleCycle(cur, *intRf_);
    }
    regfile::RegisterFile::Occupancy occ = intRf_->occupancy();
    liveLong_.sample(occ.liveLong);
    liveShort_.sample(occ.liveShort);

    if (checkInvariantsEveryCycle_) {
        std::string err = intRf_->checkInvariants();
        if (!err.empty()) {
            panic("pipeline: invariant violation at cycle %llu: %s",
                  (unsigned long long)cur, err.c_str());
        }
    }

    if (committedTotal_ != lastCommitCount_) {
        lastCommitCount_ = committedTotal_;
        lastProgressCycle_ = cur;
    } else if (cur - lastProgressCycle_ > watchdogCycles) {
        reportHang();
    }
    if (++rrCounter_ == numThreads_)
        rrCounter_ = 0;
    ++cycle_;
}

template <bool Smt>
void
Pipeline::stepStages(Cycle cur)
{
    accountCycles<Smt>(1);
    intRf_->beginCycle();
    doCommit<Smt>(cur);
    doWriteback<Smt>(cur);
    doIssue<Smt>(cur);
    doRename<Smt>(cur);
    doFetch<Smt>(cur);
}

void
Pipeline::reportHang() const
{
    const Thread *stuck = nullptr;
    unsigned tid = 0;
    for (unsigned t = 0; t < numThreads_ && !stuck; ++t) {
        if (!threads_[t].rob.empty()) {
            stuck = &threads_[t];
            tid = t;
        }
    }
    if (!stuck) {
        panic("pipeline: no commit for %llu cycles, ROB empty",
              (unsigned long long)watchdogCycles);
    }
    const InFlightInst &head = stuck->rob.head();
    std::string src_state = "";
    if (head.src1Tag != invalidIndex) {
        const TagInfo &ti = tagInfo(head.src1Tag, head.src1IsFp);
        src_state += strprintf(" src1[tag=%u st=%d c=%llu r=%llu]",
            head.src1Tag, (int)ti.state,
            (unsigned long long)ti.completeCycle,
            (unsigned long long)ti.rfReadableCycle);
    }
    if (head.src2Tag != invalidIndex) {
        const TagInfo &ti = tagInfo(head.src2Tag, head.src2IsFp);
        src_state += strprintf(" src2[tag=%u st=%d c=%llu r=%llu]",
            head.src2Tag, (int)ti.state,
            (unsigned long long)ti.completeCycle,
            (unsigned long long)ti.rfReadableCycle);
    }
    panic("pipeline: no commit for %llu cycles: thread %u head seq %llu "
          "op %s state %d stallIssue %d%s",
          (unsigned long long)watchdogCycles, tid,
          (unsigned long long)head.op.seq,
          isa::opcodeName(head.op.op).c_str(), (int)head.state,
          (int)intRf_->shouldStallIssue(), src_state.c_str());
}

RunResult
Pipeline::finishRun()
{
    for (Thread &thread : threads_) {
        RunResult &r = thread.result;
        r.cycles = cycle_;
        r.ipc = cycle_ ? static_cast<double>(r.committedInsts) / cycle_
                       : 0.0;
        // The file is shared, so its occupancy averages describe the
        // run, not a thread; replicated so any thread's record reads
        // like a solo RunResult.
        r.avgLiveLong = liveLong_.mean();
        r.avgLiveShort = liveShort_.mean();
    }
    // Shared-file access counts and allocation/port totals land on
    // thread 0's record (and thus on an SMT aggregate). A one-thread
    // core takes its Long counters from the model; with more threads
    // they stay the per-thread attributions made at writeback.
    RunResult &result = threads_[0].result;
    result.intRfAccesses = intRf_->accessCounts();
    result.shortFileWrites = intRf_->shortAllocWrites();
    if (numThreads_ == 1) {
        result.longAllocStalls = intRf_->writeStalls();
        result.recoveries = intRf_->recoveries();
    }
    regfile::RegisterFile::PortStats ps = intRf_->portStats();
    result.portConflictOps = ps.conflictOps;
    result.portConflictCycles = ps.conflictCycles;
    observer_ = nullptr;
    return result;
}

RunResult
Pipeline::run(emu::TraceSource &source, CycleObserver *observer)
{
    return run(serialStream(source), observer);
}

RunResult
Pipeline::run(FetchStream &stream, CycleObserver *observer)
{
    beginRun(stream.name(), observer);
    while (active())
        stepCycle(stream);
    return finishRun();
}

SmtResult
Pipeline::run(std::vector<emu::TraceSource *> sources,
              bool stop_on_first_drain)
{
    if (sources.size() != numThreads_)
        fatal("Pipeline::run: %zu sources for %u threads",
              sources.size(), numThreads_);

    // One shared front end; each thread's records are pc-salted
    // before they reach it.
    BranchPredictors predictors(params_);
    std::vector<SaltedFetchStream> streams;
    streams.reserve(numThreads_);
    startWindow(nullptr);
    for (unsigned t = 0; t < numThreads_; ++t) {
        streams.emplace_back(*sources[t], predictors, t);
        threads_[t].stream = &streams.back();
        threads_[t].result.workload = sources[t]->name();
    }
    stopOnFirstDrain_ = stop_on_first_drain;

    while (active())
        step();
    finishRun();

    SmtResult result;
    result.cycles = cycle_;
    for (Thread &thread : threads_) {
        thread.stream = nullptr;
        result.threads.push_back(thread.result);
    }
    result.sharing = intRf_->sharingStats();
    result.maxRecoveryWait = maxRecoveryWait_;
    result.machineAccounting = numThreads_ == 1
                                   ? threads_[0].result.cycleAccounting
                                   : machineAccounting_;
    stopOnFirstDrain_ = true;
    return result;
}

} // namespace carf::core
