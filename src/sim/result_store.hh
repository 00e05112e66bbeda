/**
 * @file
 * Content-addressed, on-disk simulation result cache.
 *
 * Key = SHA-256 over the canonicalized (CoreParams, SimOptions)
 * fields that can affect simulation output, the workload name, and
 * the build fingerprint (cmake/fingerprint.cmake's hash of src/).
 * Value = the full RunResult, serialized by runResultJsonFull() so a
 * hit returns a bit-identical result — host-time fields included, the
 * seconds the original computation took.
 *
 * On-disk layout: one append-only results.ndjson under the store
 * directory, one line {"v":1,"fingerprint":...,"key":...,"result":
 * {...}} per put(). Appends are flushed per record, so a SIGKILL loses
 * at most the line being written; loading skips (and counts) any line
 * that does not parse, and reopening a file whose last write was torn
 * first seals it with a newline so the next append starts clean.
 *
 * Thread safety: get()/put() may be called concurrently from any
 * number of threads (the ExperimentRunner pool does); appends take one
 * file mutex, after put() has formatted its line. Multi-process
 * sharing of one live store directory is NOT supported — the sweep
 * orchestrator owns a store per run and reopens it on restart.
 */

#ifndef CARF_SIM_RESULT_STORE_HH
#define CARF_SIM_RESULT_STORE_HH

#include <atomic>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/params.hh"
#include "sim/simulator.hh"

namespace carf::sim
{

/**
 * Canonical key material for one simulation job: every simulation-
 * relevant field as a (name, value) pair, including @p fingerprint.
 * Deliberately excludes the execution knobs that are bit-identical by
 * contract (trace cache, worker count).
 */
std::vector<std::pair<std::string, std::string>>
resultKeyFields(const std::string &workload_name,
                const core::CoreParams &params, const SimOptions &options,
                const std::string &fingerprint);

/**
 * Content-addressed key from @p fields: the pairs are sorted by name
 * before hashing, so the key is independent of the order callers
 * assemble the fields in (field reordering never invalidates a
 * cache).
 */
std::string
resultKeyFromFields(std::vector<std::pair<std::string, std::string>> fields);

/** Persistent result cache; see the file comment for the layout. */
class ResultStore
{
  public:
    /**
     * Open (creating if needed) the store at @p dir and load every
     * entry from its file.
     */
    ResultStore(std::string dir, std::string fingerprint);

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    const std::string &dir() const { return dir_; }
    const std::string &fingerprint() const { return fingerprint_; }

    /** Key for one job under this store's build fingerprint. */
    std::string key(const std::string &workload_name,
                    const core::CoreParams &params,
                    const SimOptions &options) const;

    /**
     * Look up @p key; counts a hit or a miss. The returned RunResult
     * is bit-identical to the one put() stored (every counter and
     * every double, host times included).
     */
    std::optional<core::RunResult> get(const std::string &key) const;

    /**
     * Insert (or overwrite) @p key. The entry is appended to the file
     * and flushed before put() returns, so a later SIGKILL cannot
     * lose it.
     */
    void put(const std::string &key, const core::RunResult &result);

    /** Entries currently loaded/inserted (all fingerprints). */
    size_t size() const;
    u64 hits() const { return hits_.load(std::memory_order_relaxed); }
    u64 misses() const { return misses_.load(std::memory_order_relaxed); }
    /** Lines skipped as corrupt/truncated during open. */
    u64 skippedLines() const { return skippedLines_; }

  private:
    void load();

    std::string dir_;
    std::string fingerprint_;
    /** dir_ + "/results.ndjson". */
    std::string path_;

    mutable std::mutex mapMutex_;
    std::map<std::string, core::RunResult> entries_;

    std::mutex fileMutex_;
    /** Opened for append by the first put(). */
    std::ofstream file_;

    mutable std::atomic<u64> hits_{0};
    mutable std::atomic<u64> misses_{0};
    u64 skippedLines_ = 0;
};

} // namespace carf::sim

#endif // CARF_SIM_RESULT_STORE_HH
