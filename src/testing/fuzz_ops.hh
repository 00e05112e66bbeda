/**
 * @file
 * Fuzz operation vocabulary and seed-file format for the register-file
 * model-checking harness.
 *
 * A FuzzCase is a register-file configuration plus a flat op sequence;
 * it is the unit of generation, execution, shrinking, and replay. The
 * textual seed-file format is deliberately line-based and stable so a
 * counterexample found by a nightly fuzz run can be attached to a bug
 * report and re-executed bit-identically by `carf_fuzz_replay`.
 */

#ifndef CARF_TESTING_FUZZ_OPS_HH
#define CARF_TESTING_FUZZ_OPS_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "regfile/registry.hh"

namespace carf::testing
{

/** One step of the register-file interface driven by the fuzzer. */
enum class FuzzOpKind : u8
{
    /** write(tag, value) at writeback. */
    Write,
    /** writeForced(tag, value): §3.2 pseudo-deadlock recovery. */
    WriteForced,
    /** read(tag), checked bit-exact against the shadow oracle. */
    Read,
    /** release(tag) at commit. */
    Release,
    /** noteAddress(value): LD/ST effective-address Short allocation. */
    NoteAddress,
    /** onRobInterval(): Tcur/Told epoch tick. */
    RobInterval,
    /** Continue on a fresh implementation and a fresh oracle. */
    Reset,
    /**
     * Fault injection: ContentAwareRegFile::debugInjectFault(value)
     * leaks a Short-file reference, bypassing the oracle; a no-op on
     * flat backends. Only emitted by tests that prove the harness
     * catches internal-state corruption; never generated.
     */
    InjectShortRefLeak,
};

const char *fuzzOpName(FuzzOpKind kind);

/** A single operation; value doubles as address / injection slot. */
struct FuzzOp
{
    FuzzOpKind kind = FuzzOpKind::RobInterval;
    u32 tag = 0;
    u64 value = 0;
    /**
     * Issuing hardware thread (multithreaded mode): the harness passes
     * it to the file's write and noteAddress calls. 0 in
     * single-threaded cases; serialized as a leading index on the op
     * line only when nonzero, so old seed files parse unchanged.
     */
    u32 tid = 0;

    bool operator==(const FuzzOp &) const = default;
};

/** Register-file configuration of a fuzz case. */
struct FuzzConfig
{
    /** Registry name of the model this case drives. */
    std::string backend = "content-aware";
    /** Physical tags. */
    unsigned entries = 64;
    /**
     * Hardware threads interleaving on the one shared file (and one
     * shared shadow oracle). With threads > 1 the generator emits N
     * independent op streams over disjoint tag slices and interleaves
     * them randomly; per-step checks then cover Short refcounts and
     * Long free-list integrity across every interleaving.
     */
    unsigned threads = 1;
    regfile::ContentAwareParams ca;
    regfile::PortReductionParams portRed;

    /** Instantiate the configured register file via the registry. */
    std::unique_ptr<regfile::RegisterFile>
    makeFile(const std::string &name) const;
};

/**
 * The standard configurations the bounded fuzz tests cover: every
 * registered backend (so a newly registered model is fuzzed with no
 * harness changes), plus the associative-Short and alloc-on-any-result
 * ablation variants of the content-aware file.
 */
std::vector<FuzzConfig> standardFuzzConfigs();

/** A deterministic, replayable fuzz case. */
struct FuzzCase
{
    FuzzConfig config;
    std::vector<FuzzOp> ops;

    /** Render as seed-file text (see parse for the grammar). */
    std::string serialize() const;

    /**
     * Parse seed-file text; returns std::nullopt and fills @p error
     * on malformed input. parse(serialize()) is the identity.
     */
    static std::optional<FuzzCase> parse(const std::string &text,
                                         std::string *error);

    /** Write the seed file; false (with @p error) on I/O failure. */
    bool writeFile(const std::string &path, std::string *error) const;

    /** Load a seed file written by writeFile. */
    static std::optional<FuzzCase> loadFile(const std::string &path,
                                            std::string *error);
};

} // namespace carf::testing

#endif // CARF_TESTING_FUZZ_OPS_HH
