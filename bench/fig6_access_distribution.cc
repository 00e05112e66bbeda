/**
 * @file
 * Figure 6: register file READ and WRITE access distribution by value
 * type as a function of d+n (n=3, 8 short, 48 long registers).
 *
 * The paper reports that larger d+n shifts accesses from long toward
 * short/simple; at d+n=24 over 50% of accesses are short-typed and
 * under 20% long-typed.
 */

#include <tuple>

#include "bench_util.hh"

using namespace carf;

namespace
{

void
addRows(Table &table, unsigned dn, const sim::SuiteRun &run)
{
    const auto counts = run.totalAccesses();
    u64 reads = counts.totalReads();
    u64 writes = counts.totalWrites();
    auto frac = [](u64 part, u64 whole) {
        return whole ? static_cast<double>(part) / whole : 0.0;
    };
    table.addRow({strprintf("d+n=%u", dn),
                  Table::pct(frac(counts.reads[0], reads)),
                  Table::pct(frac(counts.reads[1], reads)),
                  Table::pct(frac(counts.reads[2], reads)),
                  Table::pct(frac(counts.writes[0], writes)),
                  Table::pct(frac(counts.writes[1], writes)),
                  Table::pct(frac(counts.writes[2], writes))});
}

} // namespace

int
main(int argc, char **argv)
{
    auto args =
        bench::BenchArgs::parse("fig6_access_distribution", argc, argv);
    args.readRegfileKey();
    args.rejectUnreadKeys();
    bench::printHeader(
        "Figure 6: access distribution by value type vs d+n",
        "long share falls with d+n; at d+n=24, >50% short, <20% long");

    for (auto [title, name, suite] :
         {std::tuple{"Fig 6 INT suite", "INT", &workloads::intSuite()},
          std::tuple{"Fig 6 FP suite", "FP", &workloads::fpSuite()}}) {
        Table table(title);
        table.setColumns({"config", "rd simple", "rd short", "rd long",
                          "wr simple", "wr short", "wr long"});
        for (unsigned dn : bench::kDnSweep) {
            auto run = args.runSuite(
                *suite, core::CoreParams::contentAware(dn),
                strprintf("CA %s d+n=%u", name, dn));
            addRows(table, dn, run);
        }
        bench::printTable(table, args);
    }
    args.writeReport();
    return 0;
}
