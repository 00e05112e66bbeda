/**
 * @file
 * Value taxonomy of the content-aware register file (paper §2-§3).
 *
 * Given the similarity parameters d and n (the Simple file's value
 * field is d+n bits wide):
 *
 *  - a value is **simple** when it sign-extends from its low d+n bits
 *    (its high 64-d-n bits are all zeros or all ones);
 *  - a value is **short** when the Short file entry selected by bits
 *    [d, d+n) of the value holds its high 64-d-n bits (i.e.\ it is
 *    (64-d)-similar to a resident value group);
 *  - everything else is **long**.
 *
 * The ShortFile here is the direct-mapped structure from §3.1; a
 * fully-associative variant (§4, rejected by the paper on energy
 * grounds) is provided for the ablation study.
 */

#ifndef CARF_REGFILE_VALUE_CLASS_HH
#define CARF_REGFILE_VALUE_CLASS_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace carf::regfile
{

/** Content type of a register value (the 2-bit RD field). */
enum class ValueType : u8
{
    Simple,
    Short,
    Long,
};

const char *valueTypeName(ValueType type);

/**
 * Similarity / geometry parameters of the content-aware file.
 *
 * The classification masks are derived from (d, n) once at
 * construction, which keeps the per-writeback classifyValue() path
 * down to two branchless mask compares; d and n are read-only
 * afterwards so the masks can never go stale.
 */
class SimilarityParams
{
  public:
    /**
     * @param d low bits in which (64-d)-similar values may differ
     * @param n log2 of the Short file size; index bits
     *
     * Out-of-range combinations are tolerated here (the masks just
     * degenerate) and rejected by validate(), so tests can construct
     * nonsense parameters and assert that validate() is fatal.
     */
    SimilarityParams(unsigned d = 17, unsigned n = 3) : d_(d), n_(n)
    {
        unsigned w = d_ + n_;
        if (w >= 1 && w <= 64)
            signMask_ = ~u64{0} << (w - 1);
        if (n_ < 64)
            indexMask_ = (u64{1} << n_) - 1;
    }

    /** Low bits in which (64-d)-similar values may differ. */
    unsigned d() const { return d_; }
    /** log2 of the Short file size; index bits. */
    unsigned n() const { return n_; }

    /** Width of the Simple value field. */
    unsigned simpleFieldBits() const { return d_ + n_; }
    /** Width of a Short file entry. */
    unsigned shortEntryBits() const { return 64 - d_ - n_; }
    /** Number of Short file entries. */
    unsigned shortEntries() const { return 1u << n_; }

    /** Short-file index of @p value: bits [d, d+n). */
    unsigned shortIndex(u64 value) const
    {
        return static_cast<unsigned>((value >> d_) & indexMask_);
    }
    /** High-order field stored in a Short entry: bits [d+n, 64). */
    u64 shortTag(u64 value) const { return value >> (d_ + n_); }
    /**
     * True when @p value sign-extends from its low d+n bits, i.e.
     * bits [d+n-1, 64) are all zero or all one — tested as two
     * compares against the precomputed sign mask.
     */
    bool isSimple(u64 value) const
    {
        u64 high = value & signMask_;
        return high == 0 || high == signMask_;
    }

    /** Validate ranges (d+n <= 32 or so); fatal() on nonsense. */
    void validate() const;

  private:
    unsigned d_;
    unsigned n_;
    /** Bits [d+n-1, 64); a value is simple iff these are 0 or all set. */
    u64 signMask_ = 0;
    /** Low n bits, right-justified, for shortIndex(). */
    u64 indexMask_ = 0;
};

/**
 * The Short register file: M entries holding the shared high-order
 * bits of short value groups, plus the Tcur/Told reference bits and
 * live-reference counts that drive entry reclamation (§3.2).
 */
class ShortFile
{
  public:
    ShortFile(const SimilarityParams &params, bool associative = false);

    /**
     * Does any entry hold the high bits of @p value?
     * @param idx_out filled with the matching entry index on success
     */
    bool lookup(u64 value, unsigned &idx_out) const;

    /**
     * Try to allocate an entry for @p value (LD/ST address path).
     * Direct-mapped: only the indexed slot is eligible, and only if
     * free. Associative: any free slot. No-op if already resident.
     * @retval true when the value's group is resident after the call
     */
    bool tryAllocate(u64 value);

    /**
     * tryAllocate() with placement visibility: on success @p idx_out
     * holds the resident slot and @p fresh_out is true iff this call
     * placed a new group (false when the group was already resident).
     * The SMT owner accounting keys on fresh placements.
     */
    bool tryAllocate(u64 value, unsigned &idx_out, bool &fresh_out);

    /** A short-typed result referenced entry @p idx (sets Tcur). */
    void touch(unsigned idx);

    /** Live physical registers started/stopped referencing @p idx. */
    void addRef(unsigned idx);
    void dropRef(unsigned idx);

    /**
     * ROB-interval epoch (§3.2): Told <- Tcur | (refs live), clear
     * Tcur, then reclaim entries with no liveness in either epoch and
     * no live references.
     */
    void robIntervalTick();

    unsigned entries() const { return static_cast<unsigned>(slots_.size()); }
    bool valid(unsigned idx) const { return slots_.at(idx).valid; }
    /**
     * Canonical (64-d-n)-bit high field of the group in entry
     * @p idx, in both direct-mapped and associative modes.
     */
    u64 tag(unsigned idx) const;
    unsigned refCount(unsigned idx) const { return slots_.at(idx).refs; }
    unsigned liveEntries() const;

    u64 allocations() const { return allocations_; }
    u64 reclamations() const { return reclamations_; }

    /**
     * Structural self-check (debug/testing): returns an empty string
     * when every invariant holds, else a description of the first
     * violation. Checked invariants: invalid slots carry no reference
     * counts or epoch bits, and every stored tag fits its field width.
     */
    std::string checkInvariants() const;

  private:
    struct Slot
    {
        bool valid = false;
        u64 tag = 0;
        unsigned refs = 0;
        bool tcur = false;
        bool told = false;
    };

    SimilarityParams params_;
    bool associative_;
    std::vector<Slot> slots_;
    u64 allocations_ = 0;
    u64 reclamations_ = 0;
};

/**
 * Classify @p value against the current Short file contents.
 * Precedence: simple, then short, then long (§3.2 WR1).
 *
 * @param short_idx filled with the matching Short entry for
 *        ValueType::Short results
 */
ValueType classifyValue(u64 value, const SimilarityParams &params,
                        const ShortFile &short_file, unsigned &short_idx);

/**
 * The reporting taxonomy of a file without a Short file: Simple when
 * @p value sign-extends from 20 bits (the paper's chosen d+n), else
 * Long.
 */
ValueType flatValueType(u64 value);

} // namespace carf::regfile

#endif // CARF_REGFILE_VALUE_CLASS_HH
