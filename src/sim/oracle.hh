/**
 * @file
 * Live-value oracle (paper Figures 1 and 2).
 *
 * Each sampled cycle the oracle walks the live entries of the integer
 * physical register file, groups the values — by exact value for
 * Figure 1, by (64-d)-similarity for Figure 2 — ranks the groups by
 * population, and accumulates how many live registers fall in the
 * rank buckets {1, 2, 3-4, 5-8, 9-16, REST}.
 */

#ifndef CARF_SIM_ORACLE_HH
#define CARF_SIM_ORACLE_HH

#include <array>
#include <vector>

#include "core/pipeline.hh"

namespace carf::sim
{

/** Rank-bucket accumulator for one grouping criterion. */
class GroupAccumulator
{
  public:
    static constexpr unsigned numBuckets = 6;

    static const char *bucketName(unsigned bucket);

    /** Add one sample: @p group_sizes is the per-group populations. */
    void addSample(std::vector<u32> &group_sizes);

    /** Fold another accumulator's samples into this one. */
    void merge(const GroupAccumulator &other);

    /** Fraction of live registers in @p bucket across all samples. */
    double fraction(unsigned bucket) const;
    u64 total() const { return total_; }

  private:
    std::array<u64, numBuckets> buckets_{};
    u64 total_ = 0;
};

/** CycleObserver sampling exact-value and d-similarity groupings. */
class LiveValueOracle : public core::CycleObserver
{
  public:
    explicit LiveValueOracle(std::vector<unsigned> similarity_ds =
                                 {8, 12, 16});

    void sampleCycle(Cycle cycle,
                     const regfile::RegisterFile &int_rf) override;

    const GroupAccumulator &exactGroups() const { return exact_; }
    const GroupAccumulator &similarityGroups(unsigned d_index) const
    {
        return similarity_.at(d_index);
    }

    u64 samples() const { return samples_; }
    /** Mean number of live integer registers per sample. */
    double avgLiveRegs() const;

    /**
     * Fold another oracle's accumulated samples into this one; the
     * two must have been built with the same similarity d list. Lets
     * parallel per-workload runs (one oracle each) reduce to the
     * suite-level aggregate the serial loop produced.
     */
    void merge(const LiveValueOracle &other);

  private:
    std::vector<unsigned> ds_;
    GroupAccumulator exact_;
    std::vector<GroupAccumulator> similarity_;
    u64 samples_ = 0;
    u64 liveRegSum_ = 0;
};

} // namespace carf::sim

#endif // CARF_SIM_ORACLE_HH
