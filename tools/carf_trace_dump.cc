/**
 * @file
 * Trace footprint inspector:
 *
 *   carf_trace_dump workload=NAME insts=N
 *
 * Builds the in-memory TraceBuffer of the first N (default 2M)
 * instructions of a registry workload and prints its memory
 * footprint: record count, per-array byte breakdown of the encoding
 * (control bytes, mispredicted decodes, compact values, taken
 * targets), bytes per record, the ratio to the naive DynOp array a streaming replayer
 * would hold, and for each predicted field (decode, effAddr, taken
 * target, rdValue by code) its hit rate and the bytes its
 * mispredictions store. workload= is required; any other key is
 * fatal.
 */

#include <cstdio>
#include <string>

#include "common/config.hh"
#include "common/logging.hh"
#include "emu/trace_buffer.hh"
#include "workloads/workload.hh"

using namespace carf;

namespace
{

void
printSize(const char *label, u64 bytes, u64 records)
{
    std::printf("  %-10s %10.2f KiB  (%5.2f B/record)\n", label,
                bytes / 1024.0, records ? double(bytes) / records : 0.0);
}

/** One predicted field: hit rate and the bytes its misses store. */
void
printHits(const char *label, const emu::TraceBuffer::FieldHits &f,
          u64 field_bytes, u64 records)
{
    u64 stored = (f.records - f.hits) * field_bytes;
    std::printf("  %-10s %7.3f%% of %9llu  %10.2f KiB  (%5.2f B/record)\n",
                label, f.records ? 100.0 * f.hits / f.records : 0.0,
                (unsigned long long)f.records, stored / 1024.0,
                records ? double(stored) / records : 0.0);
}

int
printFootprint(const std::string &workload, u64 insts)
{
    auto trace =
        workloads::makeTrace(workloads::findWorkload(workload), insts);
    auto buffer = emu::TraceBuffer::build(*trace, workload, insts);
    u64 records = buffer->size();
    auto sizes = buffer->fieldSizes();

    std::printf("trace '%s': %llu records%s\n", buffer->name().c_str(),
                (unsigned long long)records,
                buffer->sawHalt() ? " (source ended before budget)" : "");
    printSize("control", sizes.control, records);
    printSize("decode", sizes.decode, records);
    printSize("values", sizes.values, records);
    printSize("targets", sizes.targets, records);
    printSize("total", sizes.total(), records);
    std::printf("  resident   %10.2f KiB (incl. vector overhead)\n",
                buffer->memoryBytes() / 1024.0);

    const auto &stats = buffer->predictionStats();
    std::printf("predicted   hit rate over records        stored by "
                "misses\n");
    printHits("decode", stats.decode, sizeof(emu::TraceBuffer::Decode),
              records);
    printHits("effAddr", stats.effAddr, sizeof(u64), records);
    printHits("target", stats.target, sizeof(u32), records);
    printHits("rdValue", stats.rdValue, sizeof(u64), records);
    const char *codes[] = {"last", "stride", "rs1+delta"};
    for (size_t i = 0; i < stats.rdValueByCode.size(); ++i) {
        u64 hits = stats.rdValueByCode[i];
        std::printf("    %-9s %6.3f%%\n", codes[i],
                    stats.rdValue.records
                        ? 100.0 * hits / stats.rdValue.records
                        : 0.0);
    }

    u64 naive = records * sizeof(emu::DynOp);
    std::printf("naive DynOp array: %.2f KiB (%zu B/record); "
                "the encoding is %.2fx smaller\n",
                naive / 1024.0, sizeof(emu::DynOp),
                sizes.total() ? double(naive) / sizes.total() : 0.0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    std::string workload = config.getString("workload");
    u64 insts = config.getU64("insts", 2'000'000);
    config.rejectUnreadKeys("carf_trace_dump");
    if (workload.empty())
        fatal("carf_trace_dump: workload=NAME is required");
    return printFootprint(workload, insts);
}
