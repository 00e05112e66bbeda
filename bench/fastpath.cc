/**
 * @file
 * Fast-path engine harness: measures the two simulation accelerators
 * added in DESIGN.md §4.8 and fails loudly when they regress.
 *
 * Section 1 A/Bs the exact idle-cycle skip (fast_path=0 vs 1) over
 * the stall suite plus the integer suite, and over two named
 * two-thread SMT mixes, verifies the two runs are bit-identical
 * (stripped full-fidelity JSON), and reports skip coverage, the
 * dominant cycle bucket, and the honest wall-clock speedup. Section
 * 2 compares SMARTS-style sampled runs against full detailed runs
 * over the integer suite and reports IPC error, confidence interval,
 * and speedup.
 *
 * Extra keys (beyond bench_util.hh):
 *   skip_suite=stall|int|both  section-1 workloads (default both)
 *   min_speedup=X       fatal if the stall-suite geomean skip speedup
 *                       falls below X (default 0 = report only)
 *   max_ipc_err=X       fatal if any sampled-vs-full IPC error
 *                       exceeds X, a fraction (default 0 = report
 *                       only)
 *   min_sampling_speedup=X  fatal if the sampling geomean wall
 *                       speedup falls below X (default 0)
 * The sampling_period= key defaults to 10000 here (elsewhere 0).
 */

#include <chrono>
#include <cmath>

#include "bench_util.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

using namespace carf;

namespace
{

double
secondsOf(const std::function<void()> &fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Highest-count cycle bucket, as "name p%". */
std::string
dominantBucket(const core::RunResult &r)
{
    unsigned best = 0;
    for (unsigned b = 1; b < core::CycleAccounting::NumBuckets; ++b)
        if (r.cycleAccounting.counts[b] >
            r.cycleAccounting.counts[best])
            best = b;
    double share = r.cycles ? double(r.cycleAccounting.counts[best]) /
                                  double(r.cycles)
                            : 0.0;
    return std::string(core::CycleAccounting::bucketName(best)) + " " +
           Table::pct(share);
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("fastpath", argc, argv);
    std::string skip_suite =
        args.config.getString("skip_suite", "both");
    double min_speedup = args.config.getDouble("min_speedup", 0.0);
    u64 period = args.config.getU64("sampling_period", 10000);
    double max_err = args.config.getDouble("max_ipc_err", 0.0);
    double min_samp = args.config.getDouble("min_sampling_speedup", 0.0);
    args.readRegfileKey();
    args.rejectUnreadKeys();
    bench::printHeader(
        "Fast-path engine: exact idle-cycle skip + SMARTS sampling",
        "simulator engineering (no paper figure); results must stay "
        "bit-identical (skip) / statistically faithful (sampling)");

    core::CoreParams params =
        args.applyRegfileOverride(core::CoreParams::contentAware(20));

    // Section 1: exact skip A/B. Direct simulate() calls (no runner,
    // no store) so the wall-clock numbers are honest single-thread
    // measurements; the shared trace cache keeps trace construction
    // out of both sides.
    std::vector<workloads::Workload> section1;
    if (skip_suite == "stall" || skip_suite == "both")
        for (const auto &w : workloads::stallSuite())
            section1.push_back(w);
    if (skip_suite == "int" || skip_suite == "both")
        for (const auto &w : workloads::intSuite())
            section1.push_back(w);
    if (section1.empty())
        fatal("fastpath: unknown skip_suite '%s' (stall, int, both)",
              skip_suite.c_str());

    sim::SimOptions stepped = args.options;
    stepped.samplingPeriod = 0;
    stepped.fastPath = false;
    sim::SimOptions skipping = stepped;
    skipping.fastPath = true;

    // Every A/B row: run both settings, demand identical bytes.
    auto ab_pair = [&](const std::string &label,
                       const std::function<core::RunResult(
                           const sim::SimOptions &)> &run,
                       core::RunResult &off, core::RunResult &on,
                       double &t_off, double &t_on) {
        t_off = secondsOf([&] { off = run(stepped); });
        t_on = secondsOf([&] { on = run(skipping); });
        if (sim::runResultJsonFull(off, false) !=
            sim::runResultJsonFull(on, false))
            fatal("fastpath: skip run diverged from stepped run on "
                  "'%s'",
                  label.c_str());
    };

    Table skip_table("Exact idle-cycle skip: stepped vs skipping");
    skip_table.setColumns({"workload", "suite", "ipc", "skips",
                           "cycles skipped", "dominant bucket",
                           "stepped s", "skipping s", "speedup"});
    double stall_log_sum = 0.0;
    unsigned stall_n = 0;
    sim::SuiteRun stepped_run, skipping_run;
    for (const auto &w : section1) {
        core::RunResult off, on;
        double t_off, t_on;
        ab_pair(
            w.name,
            [&](const sim::SimOptions &o) {
                return sim::simulate(w, params, o);
            },
            off, on, t_off, t_on);
        double skip_frac =
            on.cycles ? double(on.fastPathSkippedCycles) /
                            double(on.cycles)
                      : 0.0;
        double speedup = t_on > 0.0 ? t_off / t_on : 0.0;
        if (w.suite == workloads::Suite::Stall && speedup > 0.0) {
            stall_log_sum += std::log(speedup);
            ++stall_n;
        }
        skip_table.addRow(
            {w.name, workloads::suiteName(w.suite),
             Table::num(on.ipc, 3),
             strprintf("%llu", (unsigned long long)on.fastPathSkips),
             strprintf("%llu (%s)",
                       (unsigned long long)on.fastPathSkippedCycles,
                       Table::pct(skip_frac).c_str()),
             dominantBucket(on), Table::num(t_off, 3),
             Table::num(t_on, 3), Table::num(speedup, 2)});
        stepped_run.results.push_back(off);
        skipping_run.results.push_back(on);
    }

    // The same A/B on the multithreaded core: a stall-bound thread
    // beside a compute-bound one, and a homogeneous pair.
    core::CoreParams smt_params = params;
    smt_params.smtThreads = 2;
    sim::SuiteRun smt_stepped_run, smt_skipping_run;
    const std::pair<const char *, const char *> smt_mixes[] = {
        {"mem_chase", "counters"}, {"hash_table", "hash_table"}};
    for (const auto &[lead, partner] : smt_mixes) {
        const workloads::Workload &w = workloads::findWorkload(lead);
        std::string label = std::string(lead) + "+" + partner;
        core::RunResult off, on;
        double t_off, t_on;
        ab_pair(
            label,
            [&](const sim::SimOptions &o) {
                sim::SimOptions smt = o;
                smt.smtMix = {partner};
                return sim::simulate(w, smt_params, smt);
            },
            off, on, t_off, t_on);
        double skip_frac =
            on.cycles ? double(on.fastPathSkippedCycles) /
                            double(on.cycles)
                      : 0.0;
        double speedup = t_on > 0.0 ? t_off / t_on : 0.0;
        skip_table.addRow(
            {label, "smt T=2", Table::num(on.ipc, 3),
             strprintf("%llu", (unsigned long long)on.fastPathSkips),
             strprintf("%llu (%s)",
                       (unsigned long long)on.fastPathSkippedCycles,
                       Table::pct(skip_frac).c_str()),
             dominantBucket(on), Table::num(t_off, 3),
             Table::num(t_on, 3), Table::num(speedup, 2)});
        smt_stepped_run.results.push_back(off);
        smt_skipping_run.results.push_back(on);
    }

    bench::printTable(skip_table, args);
    args.report.addSuite("stepped [fast_path=0]", stepped_run);
    args.report.addSuite("skipping [fast_path=1]", skipping_run);
    args.report.addSuite("smt T=2 stepped [fast_path=0]",
                         smt_stepped_run);
    args.report.addSuite("smt T=2 skipping [fast_path=1]",
                         smt_skipping_run);

    double stall_geomean =
        stall_n ? std::exp(stall_log_sum / stall_n) : 0.0;
    if (stall_n)
        std::printf("stall-suite geomean speedup: %.2fx\n\n",
                    stall_geomean);
    if (min_speedup > 0.0 && stall_geomean < min_speedup)
        fatal("fastpath: stall-suite geomean speedup %.2fx below "
              "required %.2fx",
              stall_geomean, min_speedup);

    // Section 2: sampled vs full detailed runs. The full runs keep
    // the skip enabled — sampling must beat the *already accelerated*
    // simulator to earn its accuracy loss.
    sim::SimOptions full = args.options;
    full.samplingPeriod = 0;
    full.fastPath = true;
    sim::SimOptions sampled = full;
    sampled.samplingPeriod = period;
    sampled.validate();

    Table s_table(strprintf(
        "SMARTS sampling vs full detail (period=%llu warmup=%llu "
        "measure=%llu)",
        (unsigned long long)period,
        (unsigned long long)sampled.samplingWarmup,
        (unsigned long long)sampled.samplingMeasure));
    s_table.setColumns({"workload", "full ipc", "sampled ipc",
                        "err %", "ci95", "intervals", "full s",
                        "sampled s", "speedup"});
    double err_worst = 0.0;
    double samp_log_sum = 0.0;
    unsigned samp_n = 0;
    sim::SuiteRun full_run, sampled_run;
    for (const auto &w : workloads::intSuite()) {
        core::RunResult f, s;
        double t_full =
            secondsOf([&] { f = sim::simulate(w, params, full); });
        double t_samp = secondsOf(
            [&] { s = sim::simulate(w, params, sampled); });
        double err = f.ipc > 0.0 ? std::fabs(s.ipc - f.ipc) / f.ipc
                                 : 0.0;
        err_worst = std::max(err_worst, err);
        double speedup = t_samp > 0.0 ? t_full / t_samp : 0.0;
        if (speedup > 0.0) {
            samp_log_sum += std::log(speedup);
            ++samp_n;
        }
        s_table.addRow(
            {w.name, Table::num(f.ipc, 3), Table::num(s.ipc, 3),
             Table::num(err * 100.0, 2),
             Table::num(s.samplingIpcCi95, 4),
             strprintf("%llu",
                       (unsigned long long)s.samplingIntervals),
             Table::num(t_full, 3), Table::num(t_samp, 3),
             Table::num(speedup, 2)});
        full_run.results.push_back(f);
        sampled_run.results.push_back(s);
    }
    bench::printTable(s_table, args);
    args.report.addSuite("full detail", full_run);
    args.report.addSuite(
        strprintf("sampled [period=%llu]", (unsigned long long)period),
        sampled_run);

    double samp_geomean =
        samp_n ? std::exp(samp_log_sum / samp_n) : 0.0;
    std::printf("sampling: worst IPC error %.2f%%, geomean speedup "
                "%.2fx\n\n",
                err_worst * 100.0, samp_geomean);
    if (max_err > 0.0 && err_worst > max_err)
        fatal("fastpath: sampled IPC error %.4f above allowed %.4f",
              err_worst, max_err);
    if (min_samp > 0.0 && samp_geomean < min_samp)
        fatal("fastpath: sampling geomean speedup %.2fx below "
              "required %.2fx",
              samp_geomean, min_samp);

    args.writeReport();
    return 0;
}
