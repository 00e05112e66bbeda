/**
 * @file
 * §6 extension study: value-type-based clustering.
 *
 * Table 4 shows that both source operands of most integer
 * instructions share one value type, so a clustered microarchitecture
 * steered by result type would see little inter-cluster traffic. This
 * harness quantifies that: each instruction is (notionally) steered
 * to the cluster of its result's value type, and every register
 * source operand of a different type counts as one inter-cluster
 * transfer.
 */

#include "bench_util.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("ablation_clustering", argc, argv);
    args.readRegfileKey();
    args.rejectUnreadKeys();
    bench::printHeader(
        "Value-type clustering estimate (§6, derived from Table 4)",
        ">86% same-type operands implies little inter-cluster "
        "communication");

    Table table("inter-cluster operand transfers under result-type "
                "steering (d+n sweep)");
    table.setColumns({"config", "INT cross-ops", "FP cross-ops"});

    for (unsigned dn : {12u, 16u, 20u, 24u}) {
        auto params = core::CoreParams::contentAware(dn);
        auto run_int = args.runSuite(workloads::intSuite(), params,
                                     strprintf("CA INT d+n=%u", dn));
        auto run_fp = args.runSuite(workloads::fpSuite(), params,
                                    strprintf("CA FP d+n=%u", dn));
        table.addRow({strprintf("d+n=%u", dn),
                      Table::pct(run_int.totalClusterStats()
                                     .crossFraction()),
                      Table::pct(run_fp.totalClusterStats()
                                     .crossFraction())});
    }
    bench::printTable(table, args);

    std::printf("Reading: a cross-operand needs one inter-cluster "
                "transfer; low fractions support\nthe paper's claim "
                "that value-type clusters need little "
                "communication.\n");
    args.writeReport();
    return 0;
}
