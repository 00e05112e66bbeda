/**
 * @file
 * Thread-pooled experiment engine.
 *
 * Every figure/table reproduction evaluates an embarrassingly
 * parallel (workload x configuration) grid; ExperimentRunner turns
 * that grid into declarative jobs executed by a worker pool. Results
 * are returned indexed by submission order, so a batch run with N
 * workers is bit-identical to the same batch run serially — the only
 * thing parallelism changes is wall-clock time.
 */

#ifndef CARF_SIM_EXPERIMENT_RUNNER_HH
#define CARF_SIM_EXPERIMENT_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace carf::sim
{

class LiveValueOracle;

/** One simulation to run: a workload on a configuration. */
struct ExperimentJob
{
    workloads::Workload workload;
    core::CoreParams params;
    SimOptions options;
    /** Caller grouping key, copied into nothing — purely for the
     *  caller's bookkeeping and progress display. */
    std::string tag;
    /**
     * Optional live-value oracle receiving this job's samples. Each
     * job needs its own instance (oracles are not thread-safe); merge
     * them after run() returns for suite-level aggregates.
     */
    LiveValueOracle *oracle = nullptr;
};

/** Progress report delivered after each job completes. */
struct ExperimentProgress
{
    /** Jobs finished so far (including this one). */
    size_t completed;
    /** Total jobs in the batch. */
    size_t total;
    /** The job that just finished. */
    const ExperimentJob &job;
    /** Its result. */
    const core::RunResult &result;
    /**
     * True when the result came from the job's result store instead
     * of a simulation (SimOptions::resultStore). Cached jobs report
     * first, in submission order, before any simulation starts.
     */
    bool cached = false;
};

/**
 * Executes batches of simulation jobs on a pool of worker threads.
 *
 * Determinism contract: run() returns results in submission order,
 * and each simulation is a pure function of its job (no shared
 * mutable state in the simulator), so the result vector is identical
 * for any worker count.
 */
class ExperimentRunner
{
  public:
    /**
     * Invoked after each job completes. Serialized by the runner (at
     * most one callback at a time) but called from worker threads in
     * completion order, which under contention differs from
     * submission order.
     */
    using ProgressFn = std::function<void(const ExperimentProgress &)>;

    /** std::thread::hardware_concurrency(), never less than 1. */
    static unsigned hardwareJobs();

    /** @param jobs worker count; 0 selects hardwareJobs(). */
    explicit ExperimentRunner(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /**
     * Execute @p batch and return one RunResult per job, in
     * submission order. Each job runs alone, through simulate(); the
     * pool schedules one job per task. With jobs()==1 (or a
     * single-job batch) jobs run inline on the calling thread with no
     * pool at all.
     *
     * Jobs with options.resultStore first resolve their content-
     * addressed key against the store: hits fill their slots without
     * simulating (reported to @p progress first, cached=true, in
     * submission order), misses run as usual and are written back as
     * they complete — so a killed batch resumes by skipping every key
     * it already stored. Oracle-carrying jobs bypass the store.
     * Every job's options are validated (SimOptions::validate()) before
     * any job is looked up or run, so an invalid job is fatal with no
     * progress reported and nothing stored.
     */
    std::vector<core::RunResult>
    run(const std::vector<ExperimentJob> &batch,
        const ProgressFn &progress = {}) const;

    /**
     * Generic fan-out: invoke @p task(0) .. @p task(count-1) on the
     * worker pool, each index exactly once. Tasks must be mutually
     * independent (no shared mutable state without their own
     * synchronization). With jobs()==1 or count<=1 the tasks run
     * inline, in index order, with no pool. Used by run() and by
     * non-simulation batch work such as the register-file fuzz driver
     * (one seed stream per task).
     */
    void runTasks(size_t count,
                  const std::function<void(size_t)> &task) const;

  private:
    unsigned jobs_;
};

} // namespace carf::sim

#endif // CARF_SIM_EXPERIMENT_RUNNER_HH
