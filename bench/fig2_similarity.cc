/**
 * @file
 * Figure 2: distribution of (64-d)-similar live integer values as a
 * function of d (8, 12, 16), for the INT suite.
 *
 * The paper reports that for d=16 the top similarity group holds 42%
 * of live values and REST shrinks to 13% — i.e.\ partial value
 * locality far exceeds exact value locality, and grows with d.
 */

#include <memory>

#include "bench_util.hh"
#include "sim/oracle.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("fig2_similarity", argc, argv);
    bench::printHeader(
        "Figure 2: (64-d)-similar live integer values vs d",
        "d=8: 35% in group 1, REST 35%; d=16: 42% in group 1, REST 13%");

    sim::SimOptions options = args.options;
    options.oracleSamplePeriod =
        args.config.getU32("sample", 16);
    args.rejectUnreadKeys();

    // One job per workload with a private oracle; merging in suite
    // order reproduces the serial shared-oracle accumulation.
    std::vector<std::unique_ptr<sim::LiveValueOracle>> oracles;
    std::vector<sim::ExperimentJob> jobs;
    for (const auto &w : workloads::intSuite()) {
        oracles.push_back(std::make_unique<sim::LiveValueOracle>(
            std::vector<unsigned>{8, 12, 16}));
        jobs.push_back({w, core::CoreParams::baseline(), options,
                        "baseline INT", oracles.back().get()});
    }
    sim::SuiteRun suite_run;
    suite_run.results = args.runner.run(jobs);
    args.report.addSuite("baseline INT", suite_run);

    sim::LiveValueOracle oracle({8, 12, 16});
    for (const auto &o : oracles)
        oracle.merge(*o);

    Table table("Fig 2: similarity-group shares (INT suite)");
    table.setColumns({"group", "d=8", "d=12", "d=16"});
    for (unsigned b = 0; b < sim::GroupAccumulator::numBuckets; ++b) {
        table.addRow({sim::GroupAccumulator::bucketName(b),
                      Table::pct(oracle.similarityGroups(0).fraction(b)),
                      Table::pct(oracle.similarityGroups(1).fraction(b)),
                      Table::pct(oracle.similarityGroups(2).fraction(b))});
    }
    bench::printTable(table, args);

    // Cumulative capture by the top groups (the paper: tracking the
    // top four groups captures ~70% of values at d=16).
    Table cumulative("Cumulative capture by top-ranked groups");
    cumulative.setColumns({"top groups", "d=8", "d=12", "d=16"});
    const char *labels[] = {"1", "2", "4", "8", "16"};
    for (unsigned upto = 0; upto < 5; ++upto) {
        std::vector<std::string> row = {labels[upto]};
        for (unsigned di = 0; di < 3; ++di) {
            double sum = 0.0;
            for (unsigned b = 0; b <= upto; ++b)
                sum += oracle.similarityGroups(di).fraction(b);
            row.push_back(Table::pct(sum));
        }
        cumulative.addRow(row);
    }
    bench::printTable(cumulative, args);
    args.writeReport();
    return 0;
}
