/**
 * @file
 * The decoded front-end stream the pipeline fetches from.
 *
 * Branch prediction consumes the dynamic trace strictly in program
 * order and never reads timing state, so its per-record outcome is a
 * pure function of the instruction stream — independent of the core
 * configuration consuming it. Prediction is therefore factored out of
 * Pipeline into a stream of (DynOp, prediction flags) records:
 * PredictingFetchStream annotates a trace source, and wrappers such
 * as the sampling engine's length cap sit between it and the core.
 */

#ifndef CARF_CORE_FETCH_STREAM_HH
#define CARF_CORE_FETCH_STREAM_HH

#include <span>
#include <string>

#include "branch/btb.hh"
#include "branch/gshare.hh"
#include "branch/ras.hh"
#include "core/params.hh"
#include "emu/trace.hh"

namespace carf::core
{

/** One trace record annotated with the front end's prediction. */
struct FetchEntry
{
    emu::DynOp op;
    /** Conditional branch (counted in RunResult::condBranches). */
    bool isCondBranch = false;
    /**
     * The front end predicted direction and target correctly. False
     * stalls fetch until the branch resolves (conditional branches
     * additionally count as mispredicts; JAL/JALR target misses cost
     * the redirect but are not counted, matching the paper's
     * conditional-only mispredict rate).
     */
    bool predictedCorrect = true;
};

/** A program-order stream of predicted records. */
class FetchStream
{
  public:
    virtual ~FetchStream() = default;
    /** Produce the next record; false when the stream is exhausted. */
    virtual bool next(FetchEntry &out) = 0;

    /**
     * Records for functional warm-up: the next out.size() records
     * into @p out, each trained on by the front end as next() would,
     * with the outcome flags dropped (nothing times them).
     * @return the records written; fewer than out.size() only when
     *         next() would have returned false.
     */
    virtual size_t fillWarm(std::span<emu::DynOp> out);

    virtual std::string name() const = 0;
};

/**
 * The gshare+BTB+RAS front end bundle. predict() must see every
 * record of the dynamic trace exactly once, in program order; the
 * outcome flags are then valid for any consuming configuration with
 * the same predictor geometry.
 */
class BranchPredictors
{
  public:
    explicit BranchPredictors(const CoreParams &params);

    /** Predict (and train on) @p op, filling @p out's flags. */
    void
    predict(const emu::DynOp &op, FetchEntry &out)
    {
        out.isCondBranch = false;
        out.predictedCorrect = true;
        if (op.isBranch())
            predictBranch(op, out);
    }

  private:
    void predictBranch(const emu::DynOp &op, FetchEntry &out);

    branch::Gshare gshare_;
    branch::Btb btb_;
    branch::Ras ras_;
};

/**
 * The serial front end: pulls records from a TraceSource and predicts
 * them on the fly. Predictor state lives here, so one stream spans a
 * warm-up pass and the timed window.
 */
class PredictingFetchStream final : public FetchStream
{
  public:
    PredictingFetchStream(emu::TraceSource &source,
                          const CoreParams &params)
        : source_(&source), predictors_(params)
    {
    }

    bool
    next(FetchEntry &out) override
    {
        if (!source_->next(out.op))
            return false;
        predictors_.predict(out.op, out);
        return true;
    }

    /** One block from the source, then the predictor over it. */
    size_t
    fillWarm(std::span<emu::DynOp> out) override
    {
        size_t n = source_->fill(out);
        FetchEntry flags;
        for (size_t i = 0; i < n; ++i)
            predictors_.predict(out[i], flags);
        return n;
    }

    std::string name() const override { return source_->name(); }

  private:
    emu::TraceSource *source_;
    BranchPredictors predictors_;
};

} // namespace carf::core

#endif // CARF_CORE_FETCH_STREAM_HH
