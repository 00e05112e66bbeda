/**
 * @file
 * §6 extension study: N SMT threads sharing one content-aware integer
 * register file.
 *
 * The paper argues that because the *average* number of live Long
 * registers is far below the Long file's peak-sized capacity, a
 * single Long file can feed more than one thread. This harness scales
 * that claim along the thread axis: a T x (backend, K) grid of SMT
 * runs through the experiment runner, reporting aggregate IPC,
 * per-thread fairness, the cross-thread Short-share rate (how often
 * one thread's value group feeds another), and live-Long occupancy.
 *
 * Extra keys beyond the bench_util universals:
 *   smt_threads=T[,T...]  thread counts to sweep (default 1,2,4,8)
 *   mix=W[,W...]          workload mix; thread t runs mix[t % len]
 *                         (default counters,crc,hash_table,rle —
 *                         alternating high- and low-similarity)
 * The physical register files scale with T (80 + 32*T integer
 * registers for the sized backends) so the rename pool never becomes
 * the bottleneck the study is not about; the Long file does NOT scale
 * — sharing it is the experiment.
 *
 * Every cell is one ExperimentRunner job, so store_dir= resume works:
 * a warm rerun serves the whole grid from the result store.
 */

#include <algorithm>

#include "bench_util.hh"

using namespace carf;

namespace
{

/** One grid row: a register-file organization label + base params. */
struct Org
{
    std::string label;
    core::CoreParams params;
};

/** Scale the rename pools with the thread count (see file comment). */
core::CoreParams
scaledForThreads(const core::CoreParams &base, unsigned threads)
{
    core::CoreParams p = base;
    p.smtThreads = threads;
    if (p.regFileBackend == "unlimited") {
        p.physIntRegs = 128 + 32 * threads;
        p.physFpRegs = 128 + 32 * threads;
    } else {
        p.physIntRegs = 80 + 32 * threads;
        p.physFpRegs = 96 + 32 * threads;
    }
    return p;
}

double
crossShareRate(const core::RunResult &r)
{
    return r.smtShortHits
               ? static_cast<double>(r.smtCrossShortHits) / r.smtShortHits
               : 0.0;
}

double
fairness(const core::RunResult &r)
{
    if (r.smtThreadIpc.empty())
        return 1.0; // solo run: trivially fair
    double lo = r.smtThreadIpc[0], hi = r.smtThreadIpc[0];
    for (double ipc : r.smtThreadIpc) {
        lo = std::min(lo, ipc);
        hi = std::max(hi, ipc);
    }
    return hi > 0.0 ? lo / hi : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("ablation_smt", argc, argv);
    bench::printHeader(
        "SMT sharing of the content-aware register file (§6)",
        "avg live Long registers (~13) << K, so one Long file can "
        "feed multiple threads");

    std::vector<unsigned> thread_counts;
    for (const std::string &t :
         args.config.getList("smt_threads", "1,2,4,8")) {
        // One key per list item: the validated 32-bit parser.
        Config item;
        item.set("smt_threads", t);
        unsigned n = item.getU32("smt_threads", 0);
        if (!n)
            fatal("smt_threads=: '%s' is not a positive thread count",
                  t.c_str());
        thread_counts.push_back(n);
    }

    std::vector<std::string> mix =
        args.config.getList("mix", "counters,crc,hash_table,rle");
    if (mix.empty())
        fatal("mix=: need at least one workload name");
    for (const std::string &name : mix)
        workloads::findWorkload(name); // fatal on unknown names
    args.readRegfileKey();
    args.rejectUnreadKeys();

    // Thread 0 runs mix[0]; simulate() assigns thread t > 0 from
    // smtMix[(t-1) % len], so rotating the mix by one gives thread t
    // exactly mix[t % len].
    args.options.smtMix.clear();
    for (size_t i = 1; i <= mix.size(); ++i)
        args.options.smtMix.push_back(mix[i % mix.size()]);

    // Grid rows: the fixed-capacity organizations plus the
    // content-aware K sweep (the Long file deliberately does not
    // scale with T).
    std::vector<Org> orgs;
    orgs.push_back({"baseline", core::CoreParams::baseline()});
    orgs.push_back({"port-reduction", core::CoreParams::portReduction()});
    for (unsigned k : {32u, 48u, 64u})
        orgs.push_back({strprintf("CA K=%u", k),
                        core::CoreParams::contentAware(20, 3, k)});
    orgs.push_back({"unlimited", core::CoreParams::unlimited()});

    // One batch for the whole grid, so the runner's pool, trace
    // cache, and result store all see every cell at once.
    std::vector<sim::ExperimentJob> jobs;
    for (const Org &org : orgs)
        for (unsigned t : thread_counts)
            jobs.push_back({workloads::findWorkload(mix[0]),
                            scaledForThreads(
                                args.applyRegfileOverride(org.params), t),
                            args.options,
                            args.decorateLabel(
                                strprintf("%s T=%u", org.label.c_str(),
                                          t)),
                            nullptr});

    sim::ExperimentRunner::ProgressFn fn;
    if (args.progress) {
        fn = [](const sim::ExperimentProgress &p) {
            inform("[%s] %zu/%zu %s (%.2fs)", p.job.tag.c_str(),
                   p.completed, p.total, p.job.workload.name.c_str(),
                   p.result.wallSeconds);
        };
    }
    std::vector<core::RunResult> results = args.runner.run(jobs, fn);

    // Record per-organization rows into the JSON report.
    for (size_t o = 0; o < orgs.size(); ++o) {
        sim::SuiteRun run;
        for (size_t t = 0; t < thread_counts.size(); ++t)
            run.results.push_back(
                results[o * thread_counts.size() + t]);
        args.report.addSuite(args.decorateLabel(orgs[o].label), run);
    }

    auto cell = [&](size_t o, size_t t) -> const core::RunResult & {
        return results[o * thread_counts.size() + t];
    };

    std::vector<std::string> columns = {"organization"};
    for (unsigned t : thread_counts)
        columns.push_back(strprintf("T=%u", t));

    std::string mix_desc = mix[0];
    for (size_t i = 1; i < mix.size(); ++i)
        mix_desc += "+" + mix[i];

    Table ipc_table("aggregate IPC (mix " + mix_desc + ")");
    ipc_table.setColumns(columns);
    Table fair_table("fairness: min/max per-thread IPC");
    fair_table.setColumns(columns);
    Table share_table("cross-thread Short-share rate");
    share_table.setColumns(columns);
    Table long_table("avg live Long registers");
    long_table.setColumns(columns);

    for (size_t o = 0; o < orgs.size(); ++o) {
        std::vector<std::string> ipc_row = {orgs[o].label};
        std::vector<std::string> fair_row = {orgs[o].label};
        std::vector<std::string> share_row = {orgs[o].label};
        std::vector<std::string> long_row = {orgs[o].label};
        for (size_t t = 0; t < thread_counts.size(); ++t) {
            const core::RunResult &r = cell(o, t);
            ipc_row.push_back(Table::num(r.ipc, 2));
            fair_row.push_back(thread_counts[t] > 1
                                   ? Table::num(fairness(r), 2)
                                   : "-");
            share_row.push_back(r.smtShortHits
                                    ? Table::pct(crossShareRate(r))
                                    : "-");
            long_row.push_back(r.avgLiveLong > 0.0
                                   ? Table::num(r.avgLiveLong, 1)
                                   : "-");
        }
        ipc_table.addRow(ipc_row);
        fair_table.addRow(fair_row);
        share_table.addRow(share_row);
        long_table.addRow(long_row);
    }
    bench::printTable(ipc_table, args);
    bench::printTable(fair_table, args);
    bench::printTable(share_table, args);
    bench::printTable(long_table, args);

    std::printf(
        "Reading: aggregate IPC that keeps growing with T while avg "
        "live Long stays\nwell under K supports the sharing claim; the "
        "cross-thread share rate shows how\nmuch of the Short file's "
        "value similarity crosses thread boundaries.\n");
    args.writeReport();
    return 0;
}
