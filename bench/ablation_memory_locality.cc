/**
 * @file
 * §6 third direction: partial value locality in the *memory* stream.
 *
 * The paper notes that both addresses and data in the cache hierarchy
 * show considerable partial value locality, suggesting content-aware
 * techniques beyond the register file. This harness scans the
 * dynamic trace directly (no timing model needed) and groups load/
 * store effective addresses and stored data values by
 * (64-d)-similarity over sliding windows, reporting the share of
 * references whose high bits match the window's dominant groups.
 */

#include <algorithm>
#include <unordered_map>

#include "bench_util.hh"
#include "common/bitutil.hh"

using namespace carf;

namespace
{

/** Window-based top-group coverage for a value stream. */
class WindowLocality
{
  public:
    explicit WindowLocality(unsigned d) : d_(d) {}

    void
    add(u64 value)
    {
        window_.push_back(similarityTag(value, d_));
        if (window_.size() >= 4096)
            flush();
    }

    void
    flush()
    {
        if (window_.empty())
            return;
        std::unordered_map<u64, u32> groups;
        for (u64 tag : window_)
            ++groups[tag];
        std::vector<u32> sizes;
        sizes.reserve(groups.size());
        for (const auto &[tag, count] : groups)
            sizes.push_back(count);
        std::sort(sizes.begin(), sizes.end(), std::greater<u32>());
        u64 top4 = 0;
        for (size_t i = 0; i < sizes.size() && i < 4; ++i)
            top4 += sizes[i];
        covered_ += top4;
        total_ += window_.size();
        window_.clear();
    }

    double
    coverage() const
    {
        return total_ ? static_cast<double>(covered_) / total_ : 0.0;
    }

    u64 total() const { return total_; }

  private:
    unsigned d_;
    std::vector<u64> window_;
    u64 covered_ = 0;
    u64 total_ = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    auto args =
        bench::BenchArgs::parse("ablation_memory_locality", argc, argv);
    args.rejectUnreadKeys();
    bench::printHeader(
        "Memory-stream partial value locality (§6 future direction)",
        "addresses and data both exhibit considerable partial value "
        "locality");

    const unsigned ds[] = {8, 12, 16};
    Table table("share of references covered by the top-4 "
                "(64-d)-similar groups per 4096-reference window");
    table.setColumns({"workload", "addr d=8", "addr d=12", "addr d=16",
                      "data d=8", "data d=12", "data d=16"});

    for (const char *name :
         {"pointer_chase", "hash_table", "graph_walk", "bst_search",
          "rle", "counters", "bit_pack", "daxpy", "jacobi"}) {
        std::vector<WindowLocality> addr_loc;
        std::vector<WindowLocality> data_loc;
        for (unsigned d : ds) {
            addr_loc.emplace_back(d);
            data_loc.emplace_back(d);
        }

        auto trace = workloads::makeTrace(workloads::findWorkload(name),
                                          args.options.maxInsts);
        emu::DynOp op;
        while (trace->next(op)) {
            if (op.isLoad() || op.isStore()) {
                for (auto &loc : addr_loc)
                    loc.add(op.effAddr);
            }
            if (op.isStore()) {
                for (auto &loc : data_loc)
                    loc.add(op.rs2Value);
            }
        }
        std::vector<std::string> row = {name};
        for (auto &loc : addr_loc) {
            loc.flush();
            row.push_back(loc.total() ? Table::pct(loc.coverage())
                                      : "-");
        }
        for (auto &loc : data_loc) {
            loc.flush();
            row.push_back(loc.total() ? Table::pct(loc.coverage())
                                      : "-");
        }
        table.addRow(row);
    }
    bench::printTable(table, args);
    args.writeReport();
    return 0;
}
