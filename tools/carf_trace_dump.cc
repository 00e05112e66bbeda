/**
 * @file
 * Trace inspection tool.
 *
 *   carf_trace_dump record <workload> <path> [insts]
 *       Emulate <workload> for [insts] (default 2M) instructions and
 *       write the trace to <path>.
 *
 *   carf_trace_dump footprint <workload>|<path> [insts]
 *       Build the in-memory TraceBuffer for a workload (by name) or a
 *       recorded trace file and print its memory footprint: record
 *       count, irregular-record count, per-array byte breakdown of the
 *       encoding (control bytes, mispredicted decodes, compact values,
 *       taken targets, verbatim irregular records), bytes per record,
 *       the ratio to the naive DynOp array a streaming replayer would
 *       hold, and for each predicted field (decode, effAddr, taken
 *       target, rdValue by code) its hit rate and the bytes its
 *       mispredictions store.
 *
 *   carf_trace_dump head <path> [count]
 *       Print the first [count] (default 10) records of a trace file.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "emu/trace_buffer.hh"
#include "emu/trace_file.hh"
#include "isa/opcode.hh"
#include "workloads/workload.hh"

using namespace carf;

namespace
{

bool
isTraceFile(const std::string &arg)
{
    std::FILE *file = std::fopen(arg.c_str(), "rb");
    if (!file)
        return false;
    char magic[8] = {};
    bool ok = std::fread(magic, sizeof(magic), 1, file) == 1 &&
              std::memcmp(magic, "CARFTRC1", 8) == 0;
    std::fclose(file);
    return ok;
}

std::unique_ptr<emu::TraceBuffer>
buildBuffer(const std::string &arg, u64 insts)
{
    if (isTraceFile(arg))
        return emu::readTraceBuffer(arg, arg, insts);
    auto trace = workloads::makeTrace(workloads::findWorkload(arg), insts);
    return emu::TraceBuffer::build(*trace, arg, insts);
}

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
cmdFootprint(const std::string &arg, u64 insts)
{
    auto buffer = buildBuffer(arg, insts);
    u64 records = buffer->size();
    auto sizes = buffer->fieldSizes();

    std::printf("trace '%s': %llu records%s\n", buffer->name().c_str(),
                (unsigned long long)records,
                buffer->sawHalt() ? " (source ended before budget)" : "");
    std::printf("  %llu irregular records (value fields kept verbatim)\n",
                (unsigned long long)buffer->irregularRecords());
    printSize("control", sizes.control, records);
    printSize("decode", sizes.decode, records);
    printSize("values", sizes.values, records);
    printSize("targets", sizes.targets, records);
    printSize("irregular", sizes.irregular, records);
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

int
cmdRecord(const std::string &workload, const std::string &path, u64 insts)
{
    auto trace =
        workloads::makeTrace(workloads::findWorkload(workload), insts);
    u64 written = emu::TraceWriter::record(*trace, path);
    std::printf("wrote %llu records to %s\n",
                (unsigned long long)written, path.c_str());
    return 0;
}

int
cmdHead(const std::string &path, u64 count)
{
    emu::TraceReader reader(path, path, count);
    emu::DynOp op;
    while (reader.next(op)) {
        std::printf("%8llu  pc %6llu  %-6s rd %2u rs1 %2u rs2 %2u  "
                    "rd=%016llx%s\n",
                    (unsigned long long)op.seq,
                    (unsigned long long)op.pc,
                    isa::opcodeName(op.op).c_str(), op.rd, op.rs1,
                    op.rs2, (unsigned long long)op.rdValue,
                    op.taken ? "  taken" : "");
    }
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: carf_trace_dump record <workload> <path> "
                 "[insts]\n"
                 "       carf_trace_dump footprint <workload>|<path> "
                 "[insts]\n"
                 "       carf_trace_dump head <path> [count]\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::string cmd = argv[1];

    if (cmd == "record" && (argc == 4 || argc == 5)) {
        u64 insts = argc == 5 ? std::strtoull(argv[4], nullptr, 0)
                              : 2'000'000;
        return cmdRecord(argv[2], argv[3], insts);
    }
    if (cmd == "footprint" && (argc == 3 || argc == 4)) {
        u64 insts = argc == 4 ? std::strtoull(argv[3], nullptr, 0)
                              : 2'000'000;
        return cmdFootprint(argv[2], insts);
    }
    if (cmd == "head" && (argc == 3 || argc == 4)) {
        u64 count = argc == 4 ? std::strtoull(argv[3], nullptr, 0) : 10;
        return cmdHead(argv[2], count);
    }
    return usage();
}
