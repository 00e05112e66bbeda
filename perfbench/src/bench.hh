/**
 * @file
 * Command-line options and result printing shared by the timed run
 * (main.cc) and the traced run (traced_run.cc).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <string>
#include <vector>

#include "plan.hh"

namespace perfbench
{

struct Args
{
    std::string workload;
    u64 seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for result stores and span dumps. */
    std::string workDir = ".";
    /** Smoke-test budgets. */
    bool tiny = false;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Peak resident memory of this process so far, in MiB. */
double peakRssMb();

/**
 * Print @p metrics as readable lines, then the result object as the
 * last line of standard output.
 */
void printResult(bool correct, u64 attempted, u64 failed,
                 const std::vector<Metric> &metrics);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** The traced run: per-layer metrics for @p plan. Returns the exit code. */
int runTraced(const Plan &plan, const Args &args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
