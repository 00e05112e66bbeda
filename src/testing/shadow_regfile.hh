/**
 * @file
 * Shadow oracle for register-file model checking.
 *
 * The content-aware file reconstructs every read from sub-file fields
 * and stores no copy of the full 64-bit value, so the oracle keeps the
 * plain representation the implementation deliberately gave up: one
 * 64-bit word per live tag, plus independent double-entry accounting
 * of Short-group reference counts and Long free-list occupancy. The
 * harness feeds the oracle the same operation stream it applies to the
 * implementation; after every step `check()` cross-examines the
 * implementation's observable state against the oracle's books.
 *
 * The accounting is independent in the sense that matters: the oracle
 * only ever increments/decrements its own counters from the op stream,
 * so a missed `dropRef`, a double free, or a leaked Long entry in the
 * implementation diverges from the oracle at the first check after the
 * buggy step.
 */

#ifndef CARF_TESTING_SHADOW_REGFILE_HH
#define CARF_TESTING_SHADOW_REGFILE_HH

#include <string>
#include <vector>

#include "regfile/regfile.hh"

namespace carf::testing
{

/** Plain-storage mirror of any RegisterFile implementation. */
class ShadowRegFile
{
  public:
    /**
     * @param entries physical tags mirrored
     * @param short_entries Short file size M (0 for models without a
     *        Short file, e.g.\ the baseline)
     * @param long_entries Long file size K (0 likewise)
     */
    ShadowRegFile(unsigned entries, unsigned short_entries,
                  unsigned long_entries);

    /**
     * Record a completed (non-stalled) write. @p type and @p sub_index
     * are the implementation's placement decision; the oracle's
     * reference counts advance from them independently of the
     * implementation's internal bookkeeping.
     */
    void noteWrite(u32 tag, u64 value, regfile::ValueType type,
                   unsigned sub_index);

    /** Record a release; no-op for tags the oracle holds dead. */
    void noteRelease(u32 tag);

    bool live(u32 tag) const { return regs_.at(tag).live; }
    u64 value(u32 tag) const { return regs_.at(tag).value; }
    regfile::ValueType type(u32 tag) const { return regs_.at(tag).type; }

    /** Expected reference count of Short slot @p idx. */
    unsigned shortRefs(unsigned idx) const { return shortRefs_.at(idx); }
    /** Expected number of free (real, non-overflow) Long entries. */
    unsigned freeLongEntries() const { return freeLong_; }
    /** Expected number of live Long-typed tags (overflow included). */
    unsigned liveLongEntries() const;

    /**
     * Cross-check @p file against the oracle: per-tag liveness, type,
     * and bit-exact value through peek() on any backend, plus, when
     * @p file is the content-aware file (the one backend with
     * sub-files), Short reference counts and Long free-list
     * occupancy. Returns an empty string when everything matches,
     * else a description of the first divergence.
     */
    std::string check(const regfile::RegisterFile &file) const;

  private:
    struct Reg
    {
        bool live = false;
        u64 value = 0;
        regfile::ValueType type = regfile::ValueType::Simple;
        unsigned subIndex = 0;
    };

    std::vector<Reg> regs_;
    std::vector<unsigned> shortRefs_;
    unsigned longEntries_;
    unsigned freeLong_;
};

} // namespace carf::testing

#endif // CARF_TESTING_SHADOW_REGFILE_HH
