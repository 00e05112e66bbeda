#include "sim/experiment_runner.hh"

#include <atomic>
#include <mutex>
#include <thread>

#include "sim/result_store.hh"

namespace carf::sim
{

unsigned
ExperimentRunner::hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

ExperimentRunner::ExperimentRunner(unsigned jobs)
    : jobs_(jobs ? jobs : hardwareJobs())
{
}

void
ExperimentRunner::runTasks(size_t count,
                           const std::function<void(size_t)> &task) const
{
    // Serial fast path: no pool, no synchronization.
    if (jobs_ <= 1 || count <= 1) {
        for (size_t i = 0; i < count; ++i)
            task(i);
        return;
    }

    // Work-stealing over an atomic cursor: each worker claims the
    // next unclaimed index, so every index runs exactly once. The
    // calling thread participates as a worker.
    std::atomic<size_t> next{0};
    auto work = [&]() {
        for (size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1))
            task(i);
    };

    size_t workers = std::min<size_t>(jobs_, count);
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w)
        pool.emplace_back(work);
    work();
    for (auto &thread : pool)
        thread.join();
}

namespace
{

/** Whether @p job may read/write its options.resultStore. */
bool
storeEligible(const ExperimentJob &job)
{
    // An oracle is an out-of-band side channel: serving the run from
    // the cache would silently skip its samples.
    return job.options.resultStore && !job.oracle;
}

} // namespace

std::vector<core::RunResult>
ExperimentRunner::run(const std::vector<ExperimentJob> &batch,
                      const ProgressFn &progress) const
{
    // Validate every job before any runs or reaches the store: an
    // invalid job late in the batch must not leave earlier results
    // simulated, reported and stored before it is fatal.
    for (const ExperimentJob &job : batch)
        job.options.validate(job.params.smtThreads);

    std::vector<core::RunResult> results(batch.size());

    // Resolve content-addressed cache hits up front: a hit fills its
    // submission slot with the stored bit-identical result and never
    // reaches the pool, so a fully warm batch costs one key
    // derivation plus one map lookup per job. Misses keep their key
    // so completion can write straight back.
    std::vector<std::string> keys(batch.size());
    std::vector<char> cached(batch.size(), 0);
    std::vector<size_t> pending;
    pending.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        const ExperimentJob &job = batch[i];
        if (storeEligible(job)) {
            keys[i] = job.options.resultStore->key(job.workload.name,
                                                   job.params,
                                                   job.options);
            if (auto hit = job.options.resultStore->get(keys[i])) {
                results[i] = std::move(*hit);
                cached[i] = 1;
                continue;
            }
        }
        pending.push_back(i);
    }

    // The mutex both serializes progress callbacks and publishes each
    // result slot.
    std::mutex progress_mutex;
    size_t completed = 0;

    // Cached jobs report first, in submission order.
    for (size_t i = 0; i < batch.size(); ++i) {
        if (!cached[i])
            continue;
        ++completed;
        if (progress)
            progress({completed, batch.size(), batch[i], results[i],
                      true});
    }

    runTasks(pending.size(), [&](size_t p) {
        size_t i = pending[p];
        const ExperimentJob &job = batch[i];
        core::RunResult result =
            simulate(job.workload, job.params, job.options, job.oracle);
        // Write-back before the result is even published: a kill
        // between here and the progress callback loses nothing.
        if (storeEligible(job))
            job.options.resultStore->put(keys[i], result);
        std::lock_guard<std::mutex> lock(progress_mutex);
        results[i] = std::move(result);
        ++completed;
        if (progress)
            progress({completed, batch.size(), job, results[i]});
    });
    return results;
}

} // namespace carf::sim
