#include "testing/fuzzer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "regfile/content_aware.hh"

namespace carf::testing
{

using regfile::ValueType;

namespace
{

/** The content-aware file behind @p file, or null for a flat backend. */
regfile::ContentAwareRegFile *
contentAware(regfile::RegisterFile &file)
{
    return dynamic_cast<regfile::ContentAwareRegFile *>(&file);
}

/**
 * Size the oracle's books from a *fresh* model: M Short slots and K
 * free Long entries for the content-aware file (every real Long entry
 * of an unused file is free), none for a flat backend.
 */
ShadowRegFile
makeShadow(regfile::RegisterFile &file, unsigned entries)
{
    regfile::ContentAwareRegFile *ca = contentAware(file);
    return ca ? ShadowRegFile(entries, ca->shortFile().entries(),
                              ca->freeLongEntries())
              : ShadowRegFile(entries, 0, 0);
}

} // namespace

FuzzHarness::FuzzHarness(const FuzzConfig &config)
    : config_(config),
      file_(config.makeFile("fuzz")),
      shadow_(makeShadow(*file_, config.entries))
{
}

std::string
FuzzHarness::step(const FuzzOp &op)
{
    unsigned tid = config_.threads > 1 ? op.tid % config_.threads : 0;
    u32 tag = op.tag % config_.entries;
    switch (op.kind) {
      case FuzzOpKind::Write:
      case FuzzOpKind::WriteForced: {
        // Skipping state-invalid ops (instead of faulting) keeps every
        // subsequence of a failing sequence executable, which makes
        // delta-debugging shrinks sound.
        if (file_->peek(tag).live)
            break;
        regfile::WriteAccess access =
            op.kind == FuzzOpKind::WriteForced
                ? file_->writeForced(tag, op.value, tid)
                : file_->write(tag, op.value, tid);
        if (!access.stalled)
            shadow_.noteWrite(tag, op.value, access.type,
                              file_->peek(tag).subIndex);
        break;
      }
      case FuzzOpKind::Read: {
        if (!file_->peek(tag).live)
            break;
        if (!shadow_.live(tag))
            return strprintf("read tag %u: impl live, oracle dead", tag);
        regfile::ReadAccess access = file_->read(tag);
        if (access.value != shadow_.value(tag))
            return strprintf("read tag %u: impl %llx != oracle %llx",
                             tag, (unsigned long long)access.value,
                             (unsigned long long)shadow_.value(tag));
        if (access.type != shadow_.type(tag))
            return strprintf("read tag %u: impl type %s != oracle %s",
                             tag, valueTypeName(access.type),
                             valueTypeName(shadow_.type(tag)));
        break;
      }
      case FuzzOpKind::Release:
        file_->release(tag);
        shadow_.noteRelease(tag);
        break;
      case FuzzOpKind::NoteAddress:
        file_->noteAddress(op.value, tid);
        break;
      case FuzzOpKind::RobInterval:
        file_->onRobInterval();
        break;
      case FuzzOpKind::Reset:
        file_ = config_.makeFile("fuzz");
        shadow_ = makeShadow(*file_, config_.entries);
        break;
      case FuzzOpKind::InjectShortRefLeak:
        // Deliberate corruption, invisible to the oracle: the next
        // check must report the reference-count divergence. Flat
        // backends have no Short file to corrupt.
        if (regfile::ContentAwareRegFile *ca = contentAware(*file_))
            ca->debugInjectFault(op.value);
        break;
    }

    std::string err = file_->checkInvariants();
    if (!err.empty())
        return err;
    if (config_.threads > 1) {
        // Cross-thread accounting sanity on the shared file: a share
        // is a subset of the hits that produced it, per thread.
        auto sharing = file_->stats().sharing;
        for (size_t t = 0; t < sharing.crossShortHits.size(); ++t) {
            if (t >= sharing.shortHits.size() ||
                sharing.crossShortHits[t] > sharing.shortHits[t])
                return strprintf("thread %zu: cross-thread shares "
                                 "exceed its Short hits",
                                 t);
        }
    }
    return shadow_.check(*file_);
}

std::optional<FuzzFailure>
runCase(const FuzzCase &fuzz_case)
{
    FuzzHarness harness(fuzz_case.config);
    for (size_t i = 0; i < fuzz_case.ops.size(); ++i) {
        std::string err = harness.step(fuzz_case.ops[i]);
        if (!err.empty())
            return FuzzFailure{i, fuzz_case.ops[i], err};
    }
    return std::nullopt;
}

std::vector<FuzzOp>
generateOps(const FuzzConfig &config, Rng &rng,
            const FuzzGenOptions &options)
{
    if (config.threads > 1) {
        // Multithreaded mode: N independent single-thread streams
        // over disjoint tag slices (each thread keeps its own live-tag
        // book, like a private rename partition), randomly interleaved
        // into one sequence against the one shared file. Still a pure
        // function of @p rng, and any subsequence stays executable, so
        // shrinking works on interleavings too.
        unsigned num_threads = config.threads;
        u32 slice = std::max(1u, config.entries / num_threads);
        FuzzConfig sliced = config;
        sliced.threads = 1;
        sliced.entries = slice;
        FuzzGenOptions per = options;
        per.ops = (options.ops + num_threads - 1) / num_threads;

        size_t remaining = 0;
        std::vector<std::vector<FuzzOp>> streams(num_threads);
        for (unsigned t = 0; t < num_threads; ++t) {
            streams[t] = generateOps(sliced, rng, per);
            for (FuzzOp &op : streams[t]) {
                op.tid = t;
                if (op.kind == FuzzOpKind::Write ||
                    op.kind == FuzzOpKind::WriteForced ||
                    op.kind == FuzzOpKind::Read ||
                    op.kind == FuzzOpKind::Release)
                    op.tag += t * slice;
            }
            remaining += streams[t].size();
        }

        std::vector<FuzzOp> ops;
        ops.reserve(remaining);
        std::vector<size_t> pos(num_threads, 0);
        while (remaining > 0) {
            unsigned t = static_cast<unsigned>(
                rng.nextBounded(num_threads));
            if (pos[t] < streams[t].size()) {
                ops.push_back(streams[t][pos[t]++]);
                --remaining;
            }
        }
        return ops;
    }

    const regfile::SimilarityParams &sim = config.ca.sim;
    unsigned field_bits = sim.simpleFieldBits();

    // (64-d)-similar cluster bases, plus siblings that share the
    // Short index bits [d, d+n) but differ in the high tag — the
    // direct-mapped collision case.
    std::vector<u64> bases;
    unsigned base_count = std::max(1u, options.clusterBases);
    for (unsigned i = 0; i < base_count; ++i) {
        u64 base = rng.next() | (u64{1} << 62);
        bases.push_back(base);
        if (rng.chance(0.5) && field_bits + 2 < 62) {
            unsigned flip = field_bits + 1 +
                static_cast<unsigned>(
                    rng.nextBounded(61 - field_bits));
            bases.push_back(base ^ (u64{1} << flip));
        }
    }

    // Values hugging the sign-extension boundary of the Simple field
    // (and its one-off neighbors), both positive and negative.
    auto edge_value = [&]() {
        unsigned width = field_bits - 1 +
            static_cast<unsigned>(rng.nextBounded(3));
        u64 value = (u64{1} << (width - 1)) + (rng.next() & 7) - 4;
        if (rng.chance(0.5))
            value = ~value + 1;
        return value;
    };

    auto pick_value = [&]() -> u64 {
        switch (rng.pickWeighted({0.25, 0.2, 0.25, 0.15, 0.15})) {
          case 0:
            return edge_value();
          case 1: // comfortably simple
            return static_cast<u64>(rng.nextRange(-4096, 4096));
          case 2: // cluster member: short candidate
            return bases[rng.nextBounded(bases.size())] +
                   rng.nextBounded(u64{1} << sim.d());
          case 3: // wide: long with near certainty
            return rng.next() | (u64{1} << 63);
          default:
            return rng.nextMagnitudeBiased();
        }
    };

    std::vector<FuzzOp> ops;
    ops.reserve(options.ops);
    // Tags the generator believes are live; mispredictions (e.g.\ a
    // stalled write) only cost a skipped op at execution time.
    std::vector<u32> maybe_live;
    unsigned exhaustion = 0;

    auto pick_tag = [&]() -> u32 {
        if (!maybe_live.empty() && rng.chance(0.75))
            return maybe_live[rng.nextBounded(maybe_live.size())];
        return static_cast<u32>(rng.nextBounded(config.entries));
    };

    for (size_t i = 0; i < options.ops; ++i) {
        if (exhaustion == 0 && rng.chance(options.exhaustionChance))
            exhaustion = 50 + static_cast<unsigned>(rng.nextBounded(100));

        // write, read, release, noteAddress, robInterval, reset,
        // writeForced. Exhaustion phases pile up Long writes and
        // suppress releases to drain the free list.
        size_t kind;
        if (exhaustion > 0) {
            --exhaustion;
            kind = rng.pickWeighted(
                {0.55, 0.1, 0.05, 0.02, 0.03, 0.0, 0.25});
        } else {
            kind = rng.pickWeighted(
                {0.34, 0.24, 0.22, 0.1, 0.06, 0.003, 0.03});
        }

        FuzzOp op;
        switch (kind) {
          case 0:
          case 6: {
            op.kind = kind == 0 ? FuzzOpKind::Write
                                : FuzzOpKind::WriteForced;
            op.tag = static_cast<u32>(rng.nextBounded(config.entries));
            op.value = exhaustion > 0 ? rng.next() | (u64{1} << 63)
                                      : pick_value();
            maybe_live.push_back(op.tag);
            break;
          }
          case 1:
            op.kind = FuzzOpKind::Read;
            op.tag = pick_tag();
            break;
          case 2: {
            op.kind = FuzzOpKind::Release;
            op.tag = pick_tag();
            auto it = std::find(maybe_live.begin(), maybe_live.end(),
                                op.tag);
            if (it != maybe_live.end())
                maybe_live.erase(it);
            break;
          }
          case 3:
            op.kind = FuzzOpKind::NoteAddress;
            op.value = rng.chance(0.7)
                ? bases[rng.nextBounded(bases.size())] +
                      rng.nextBounded(u64{1} << sim.d())
                : pick_value();
            break;
          case 4:
            op.kind = FuzzOpKind::RobInterval;
            break;
          default:
            op.kind = FuzzOpKind::Reset;
            maybe_live.clear();
            break;
        }
        ops.push_back(op);
    }
    return ops;
}

FuzzCase
shrinkCase(const FuzzCase &failing)
{
    FuzzCase current = failing;
    auto failure = runCase(current);
    if (!failure)
        return current;
    // Everything after the failing op is noise by construction.
    current.ops.resize(failure->opIndex + 1);

    auto fails = [](const FuzzCase &candidate) {
        return runCase(candidate).has_value();
    };

    // ddmin-style: greedily remove chunks, halving the chunk size down
    // to single ops, then iterate 1-op passes to a fixpoint. Every
    // candidate re-runs from scratch, so the result is replayable.
    size_t chunk = std::max<size_t>(current.ops.size() / 2, 1);
    for (;;) {
        bool removed = false;
        for (size_t start = 0; start < current.ops.size();) {
            FuzzCase candidate = current;
            size_t len = std::min(chunk, candidate.ops.size() - start);
            candidate.ops.erase(
                candidate.ops.begin() + static_cast<long>(start),
                candidate.ops.begin() + static_cast<long>(start + len));
            if (fails(candidate)) {
                current = std::move(candidate);
                removed = true;
            } else {
                start += chunk;
            }
        }
        if (chunk == 1) {
            if (!removed)
                break;
        } else {
            chunk = std::max<size_t>(1, chunk / 2);
        }
    }

    // Value simplification: prefer the smallest constant that still
    // reproduces the failure.
    for (size_t i = 0; i < current.ops.size(); ++i) {
        FuzzOp &op = current.ops[i];
        if (op.kind != FuzzOpKind::Write &&
            op.kind != FuzzOpKind::WriteForced &&
            op.kind != FuzzOpKind::NoteAddress)
            continue;
        for (u64 simple : {u64{0}, u64{1}, op.value & 0xffff}) {
            if (simple == op.value)
                continue;
            FuzzCase candidate = current;
            candidate.ops[i].value = simple;
            if (fails(candidate)) {
                current = std::move(candidate);
                break;
            }
        }
    }
    return current;
}

FuzzRoundResult
fuzzOneSeed(const FuzzConfig &config, u64 seed,
            const FuzzGenOptions &options)
{
    Rng rng(seed);
    FuzzCase fuzz_case{config, generateOps(config, rng, options)};
    FuzzRoundResult result;
    result.failure = runCase(fuzz_case);
    result.opsRun = result.failure ? result.failure->opIndex
                                   : fuzz_case.ops.size();
    if (result.failure)
        result.shrunk = shrinkCase(fuzz_case);
    return result;
}

} // namespace carf::testing
