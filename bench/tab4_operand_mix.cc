/**
 * @file
 * Table 4: source-operand type-combination distribution for integer
 * instructions at d+n=20.
 *
 * Paper: only-simple 47.4%, only-short 21.7%, only-long 17.5%,
 * simple+short 6.3%, simple+long 6.2%, short+long 1.0% — i.e.\ both
 * operands share a type for >86% of instructions, motivating the §6
 * value-type-clustered microarchitecture.
 */

#include "bench_util.hh"

using namespace carf;

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse("tab4_operand_mix", argc, argv);
    args.readRegfileKey();
    args.rejectUnreadKeys();
    bench::printHeader(
        "Table 4: operation distribution by source operand types "
        "(d+n=20)",
        "same-type operands for >86% of integer instructions");

    auto run = args.runSuite(workloads::intSuite(),
                             core::CoreParams::contentAware(20),
                             "CA INT d+n=20");
    auto mix = run.totalOperandMix();

    Table table("Tab 4: integer-instruction source operand mix");
    table.setColumns({"operand types", "share"});
    double same_type = 0.0;
    for (unsigned b = 0; b < core::OperandMix::NumBuckets; ++b) {
        table.addRow({core::OperandMix::bucketName(b),
                      Table::pct(mix.fraction(b))});
        if (b <= core::OperandMix::OnlyLong)
            same_type += mix.fraction(b);
    }
    bench::printTable(table, args);
    std::printf("same-type instructions: %s (paper: >86%%)\n",
                Table::pct(same_type).c_str());
    args.writeReport();
    return 0;
}
