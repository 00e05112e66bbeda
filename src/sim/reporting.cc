#include "sim/reporting.hh"

#include <array>
#include <cstdlib>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace carf::sim
{

std::string
describeConfig(const core::CoreParams &params)
{
    std::string desc = params.regFileBackend;
    desc += strprintf(" (%u regs, %uR/%uW", params.physIntRegs,
                      params.intRfReadPorts, params.intRfWritePorts);
    // The backend's registry entry describes its own parameters:
    // "d+n=20, M=8, K=48" for the content-aware file, "shared-rd=4"
    // for port reduction, nothing for plain files.
    desc += regfile::registry()
                .at(params.regFileBackend)
                .geometry.describe(params.regFileParams());
    desc += ")";
    return desc;
}

Table
suiteIpcTable(const std::string &title, const SuiteRun &run)
{
    Table table(title);
    table.setColumns({"workload", "insts", "cycles", "IPC",
                      "br-mispred", "bypass%"});
    for (const auto &r : run.results) {
        table.addRow({r.workload,
                      Table::intNum(static_cast<long long>(
                          r.committedInsts)),
                      Table::intNum(static_cast<long long>(r.cycles)),
                      Table::num(r.ipc, 3),
                      Table::pct(r.branchMispredictRate()),
                      Table::pct(r.bypass.bypassFraction())});
    }
    return table;
}

namespace
{

/**
 * Minimal strict scanner for the runResultJsonFull() layout.
 * Every helper returns false (and poisons the cursor) on mismatch, so
 * a truncated or corrupted line fails cleanly instead of fataling.
 */
struct JsonCursor
{
    const char *p;
    const char *end;

    /** Non-consuming lookahead at the remaining input. */
    bool
    peek(std::string_view text) const
    {
        return static_cast<size_t>(end - p) >= text.size() &&
               std::string_view(p, text.size()) == text;
    }

    bool
    literal(std::string_view text)
    {
        if (!peek(text))
            return false;
        p += text.size();
        return true;
    }

    bool
    string(std::string &out)
    {
        if (p == end || *p != '"')
            return false;
        ++p;
        out.clear();
        while (p != end && *p != '"') {
            char ch = *p++;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            if (p == end)
                return false;
            char esc = *p++;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  if (end - p < 4)
                      return false;
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      char h = *p++;
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= static_cast<unsigned>(h - 'a' + 10);
                      else
                          return false;
                  }
                  // jsonString() only emits \u00xx control escapes.
                  if (code > 0xff)
                      return false;
                  out += static_cast<char>(code);
                  break;
              }
              default: return false;
            }
        }
        if (p == end)
            return false;
        ++p; // closing quote
        return true;
    }

    bool
    number(u64 &out)
    {
        const char *start = p;
        u64 v = 0;
        while (p != end && *p >= '0' && *p <= '9')
            v = v * 10 + static_cast<u64>(*p++ - '0');
        if (p == start)
            return false;
        out = v;
        return true;
    }

    bool
    number(double &out)
    {
        // strtod needs a terminated buffer; numbers are short.
        char buf[64];
        size_t n = 0;
        while (p != end && n < sizeof(buf) - 1 &&
               (*p == '-' || *p == '+' || *p == '.' || *p == 'e' ||
                *p == 'E' || (*p >= '0' && *p <= '9')))
            buf[n++] = *p++;
        if (!n)
            return false;
        buf[n] = '\0';
        char *parse_end = nullptr;
        out = std::strtod(buf, &parse_end);
        return parse_end == buf + n;
    }
};

// Flat u64 views of the composite counters, serialized as arrays.
std::array<u64, 4>
flat(const core::BypassStats &b)
{
    return {b.bypassed(false), b.bypassed(true), b.regFileReads(false),
            b.regFileReads(true)};
}

std::array<u64, 2>
flat(const core::ClusterStats &c)
{
    return {c.localOperands, c.crossOperands};
}

void
unflat(core::BypassStats &b, const std::array<u64, 4> &v)
{
    b.restore(v[0], v[1], v[2], v[3]);
}

void
unflat(core::ClusterStats &c, const std::array<u64, 2> &v)
{
    c = {v[0], v[1]};
}

/**
 * Write one field value. Doubles print at %.17g, which round-trips
 * exactly through a correctly rounded strtod: a store hit is
 * bit-identical.
 */
template <typename T>
void
emit(std::string &json, const T &value)
{
    if constexpr (std::is_same_v<T, std::string>) {
        json += jsonString(value);
    } else if constexpr (std::is_same_v<T, double>) {
        json += strprintf("%.17g", value);
    } else if constexpr (std::is_arithmetic_v<T>) {
        json += strprintf("%llu", (unsigned long long)value);
    } else if constexpr (requires { flat(value); }) {
        emit(json, flat(value));
    } else {
        json += "[";
        for (size_t i = 0; i < std::size(value); ++i) {
            json += i ? "," : "";
            emit(json, value[i]);
        }
        json += "]";
    }
}

/** Read one field value written by emit(); false on any mismatch. */
template <typename T>
bool
read(JsonCursor &cur, T &out)
{
    if constexpr (std::is_same_v<T, std::string>) {
        return cur.string(out);
    } else if constexpr (std::is_same_v<T, unsigned>) {
        u64 v = 0;
        if (!cur.number(v) || v > ~0u)
            return false;
        out = static_cast<unsigned>(v);
        return true;
    } else if constexpr (std::is_arithmetic_v<T>) {
        return cur.number(out);
    } else if constexpr (requires { flat(out); }) {
        decltype(flat(out)) v;
        if (!read(cur, v))
            return false;
        unflat(out, v);
        return true;
    } else if constexpr (requires { out.emplace_back(); }) {
        out.clear();
        if (!cur.literal("["))
            return false;
        if (cur.literal("]"))
            return true;
        do {
            if (!read(cur, out.emplace_back()))
                return false;
        } while (cur.literal(","));
        return cur.literal("]");
    } else {
        if (!cur.literal("["))
            return false;
        for (size_t i = 0; i < std::size(out); ++i)
            if ((i && !cur.literal(",")) || !read(cur, out[i]))
                return false;
        return cur.literal("]");
    }
}

/**
 * Whether @p block is serialized for @p result: optional blocks appear
 * only when they carry information, so solo full runs keep the
 * pre-SMT, pre-sampling layout (and T=1 stays byte-identical to solo).
 */
bool
blockPresent(const core::RunResult &result, core::ResultBlock block,
             bool include_host_times)
{
    switch (block) {
      case core::ResultBlock::Core: return true;
      case core::ResultBlock::Smt: return result.smtThreads > 1;
      case core::ResultBlock::Sampling: return result.samplingPeriod > 0;
      case core::ResultBlock::HostTime: return include_host_times;
    }
    return false;
}

} // namespace

std::string
runResultJsonFull(const core::RunResult &result, bool include_host_times)
{
    std::string json = "{";
    core::forEachResultField([&](const char *name,
                                 core::ResultBlock block, auto,
                                 auto get) {
        if (!blockPresent(result, block, include_host_times))
            return;
        json += json.size() > 1 ? ",\"" : "\"";
        json += name;
        json += "\":";
        emit(json, get(result));
    });
    json += "}";
    return json;
}

std::optional<core::RunResult>
parseRunResultJson(std::string_view json)
{
    JsonCursor cur{json.data(), json.data() + json.size()};
    core::RunResult r;
    bool ok = cur.literal("{");
    bool first = true;
    // An optional block is present iff its first field is.
    core::ResultBlock open = core::ResultBlock::Core;
    bool open_present = true;
    core::forEachResultField([&](const char *name,
                                 core::ResultBlock block, auto,
                                 auto get) {
        if (!ok)
            return;
        if (block != open) {
            open = block;
            open_present = cur.peek(",\"" + std::string(name) + "\"");
        }
        if (!open_present)
            return;
        ok = cur.literal(first ? "\"" : ",\"") && cur.literal(name) &&
             cur.literal("\":") && read(cur, get(r));
        first = false;
    });
    if (!ok || !cur.literal("}") || cur.p != cur.end)
        return std::nullopt;
    return r;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    out += "\"";
    return out;
}

std::string
tableJson(const Table &table)
{
    std::string json = "{\"title\":" + jsonString(table.title());
    json += ",\"columns\":[";
    for (size_t c = 0; c < table.columnCount(); ++c) {
        if (c)
            json += ",";
        json += jsonString(table.header(c));
    }
    json += "],\"rows\":[";
    for (size_t r = 0; r < table.rowCount(); ++r) {
        if (r)
            json += ",";
        json += "[";
        for (size_t c = 0; c < table.columnCount(); ++c) {
            if (c)
                json += ",";
            json += jsonString(table.cell(r, c));
        }
        json += "]";
    }
    json += "]}";
    return json;
}

std::string
suiteRunJson(const SuiteRun &run)
{
    std::string json = "[";
    for (size_t i = 0; i < run.results.size(); ++i) {
        if (i)
            json += ",";
        json += runResultJsonFull(run.results[i]);
    }
    json += "]";
    return json;
}

std::string
summarizeRun(const core::RunResult &result)
{
    return strprintf(
        "%s on %s: %llu insts in %llu cycles (IPC %.3f), "
        "bypass %.1f%%, mispredict %.2f%%",
        result.workload.c_str(), result.config.c_str(),
        (unsigned long long)result.committedInsts,
        (unsigned long long)result.cycles, result.ipc,
        100.0 * result.bypass.bypassFraction(),
        100.0 * result.branchMispredictRate());
}

} // namespace carf::sim
