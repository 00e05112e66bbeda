/**
 * @file
 * Table 2: percentage of bypassed source operands, baseline vs
 * content-aware (whose extra bypass level raises the fraction).
 *
 * Paper: SPECint 38.1% -> 47.9%; SPECfp 21.1% -> 28.4%. Our kernels
 * are more dependence-dense than SPEC, so absolute fractions are
 * higher; the content-aware > baseline ordering is the claim under
 * test.
 */

#include "bench_util.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("tab2_bypass", argc, argv);
    args.readRegfileKey();
    args.rejectUnreadKeys();
    bench::printHeader(
        "Table 2: percentage of bypassed operands",
        "baseline INT 38.1% / FP 21.1%; content-aware 47.9% / 28.4%");

    Table table("Tab 2: bypassed source operands");
    table.setColumns({"suite", "baseline", "content-aware"});
    for (auto [name, suite] :
         {std::pair{"INT", &workloads::intSuite()},
          std::pair{"FP", &workloads::fpSuite()}}) {
        auto baseline_run =
            args.runSuite(*suite, core::CoreParams::baseline(),
                          strprintf("baseline %s", name));
        auto ca_run =
            args.runSuite(*suite, core::CoreParams::contentAware(20),
                          strprintf("CA %s d+n=20", name));
        table.addRow({name, Table::pct(baseline_run.bypassFraction()),
                      Table::pct(ca_run.bypassFraction())});
    }
    bench::printTable(table, args);
    args.writeReport();
    return 0;
}
