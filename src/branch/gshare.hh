/**
 * @file
 * Gshare conditional branch direction predictor (Table 1: gshare with
 * 14-bit history) with 2-bit saturating counters.
 */

#ifndef CARF_BRANCH_GSHARE_HH
#define CARF_BRANCH_GSHARE_HH

#include <vector>

#include "common/types.hh"

namespace carf::branch
{

/** Global-history XOR-indexed pattern history table. */
class Gshare
{
  public:
    /** @param history_bits global history length; PHT has 2^bits entries */
    explicit Gshare(unsigned history_bits = 14);

    /** Predict the direction of the branch at @p pc. */
    bool predict(u64 pc) const;

    /**
     * Train with the resolved outcome and advance the global history.
     * Call exactly once per dynamic conditional branch, in program
     * order (the timing model trains speculatively at fetch and this
     * simulator never fetches wrong-path instructions).
     */
    void update(u64 pc, bool taken);

  private:
    size_t index(u64 pc) const;

    unsigned historyBits_;
    u64 history_ = 0;
    std::vector<u8> pht_;
};

} // namespace carf::branch

#endif // CARF_BRANCH_GSHARE_HH
