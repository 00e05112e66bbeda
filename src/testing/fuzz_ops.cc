#include "testing/fuzz_ops.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace carf::testing
{

const char *
fuzzOpName(FuzzOpKind kind)
{
    switch (kind) {
      case FuzzOpKind::Write: return "write";
      case FuzzOpKind::WriteForced: return "write-forced";
      case FuzzOpKind::Read: return "read";
      case FuzzOpKind::Release: return "release";
      case FuzzOpKind::NoteAddress: return "note-address";
      case FuzzOpKind::RobInterval: return "rob-interval";
      case FuzzOpKind::Reset: return "reset";
      case FuzzOpKind::InjectShortRefLeak: return "inject-short-ref-leak";
    }
    return "?";
}

std::unique_ptr<regfile::RegisterFile>
FuzzConfig::makeFile(const std::string &name) const
{
    regfile::RegFileParams params;
    params.entries = entries;
    params.threads = threads;
    params.ca = ca;
    params.portRed = portRed;
    return regfile::makeRegFile(backend, params, name);
}

std::vector<FuzzConfig>
standardFuzzConfigs()
{
    std::vector<FuzzConfig> configs;
    for (const std::string &name : regfile::registry().names()) {
        // The default ca is the paper configuration: d+n=20, M=8, K=48.
        FuzzConfig config;
        config.backend = name;
        configs.push_back(config);
        if (name == "content-aware") {
            FuzzConfig assoc = config;
            assoc.ca.associativeShort = true;
            configs.push_back(assoc);

            FuzzConfig alloc_any = config;
            alloc_any.ca.allocShortOnAnyResult = true;
            configs.push_back(alloc_any);
        }
    }
    return configs;
}

namespace
{

/** Single-letter opcodes of the seed-file grammar. */
char
opLetter(FuzzOpKind kind)
{
    switch (kind) {
      case FuzzOpKind::Write: return 'W';
      case FuzzOpKind::WriteForced: return 'F';
      case FuzzOpKind::Read: return 'R';
      case FuzzOpKind::Release: return 'L';
      case FuzzOpKind::NoteAddress: return 'A';
      case FuzzOpKind::RobInterval: return 'I';
      case FuzzOpKind::Reset: return 'Z';
      case FuzzOpKind::InjectShortRefLeak: return 'X';
    }
    return '?';
}

bool
opFromLetter(char letter, FuzzOpKind &kind_out)
{
    switch (letter) {
      case 'W': kind_out = FuzzOpKind::Write; return true;
      case 'F': kind_out = FuzzOpKind::WriteForced; return true;
      case 'R': kind_out = FuzzOpKind::Read; return true;
      case 'L': kind_out = FuzzOpKind::Release; return true;
      case 'A': kind_out = FuzzOpKind::NoteAddress; return true;
      case 'I': kind_out = FuzzOpKind::RobInterval; return true;
      case 'Z': kind_out = FuzzOpKind::Reset; return true;
      case 'X': kind_out = FuzzOpKind::InjectShortRefLeak; return true;
    }
    return false;
}

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

} // namespace

std::string
FuzzCase::serialize() const
{
    std::string out = "carf-fuzz-seed v1\n";
    out += strprintf("kind %s\n", config.backend.c_str());
    out += strprintf("entries %u\n", config.entries);
    if (config.threads > 1)
        out += strprintf("threads %u\n", config.threads);
    out += strprintf("d %u\n", config.ca.sim.d());
    out += strprintf("n %u\n", config.ca.sim.n());
    out += strprintf("long %u\n", config.ca.longEntries);
    out += strprintf("stall %u\n", config.ca.issueStallThreshold);
    out += strprintf("assoc %u\n", config.ca.associativeShort ? 1 : 0);
    out += strprintf("allocany %u\n",
                     config.ca.allocShortOnAnyResult ? 1 : 0);
    out += strprintf("ports %u\n", config.portRed.sharedReadPorts);
    out += strprintf("ops %zu\n", ops.size());
    for (const FuzzOp &op : ops) {
        if (op.tid > 0)
            out += strprintf("%u ", op.tid);
        switch (op.kind) {
          case FuzzOpKind::Write:
          case FuzzOpKind::WriteForced:
            out += strprintf("%c %u 0x%llx\n", opLetter(op.kind), op.tag,
                             (unsigned long long)op.value);
            break;
          case FuzzOpKind::Read:
          case FuzzOpKind::Release:
            out += strprintf("%c %u\n", opLetter(op.kind), op.tag);
            break;
          case FuzzOpKind::NoteAddress:
          case FuzzOpKind::InjectShortRefLeak:
            out += strprintf("%c 0x%llx\n", opLetter(op.kind),
                             (unsigned long long)op.value);
            break;
          case FuzzOpKind::RobInterval:
          case FuzzOpKind::Reset:
            out += strprintf("%c\n", opLetter(op.kind));
            break;
        }
    }
    return out;
}

std::optional<FuzzCase>
FuzzCase::parse(const std::string &text, std::string *error)
{
    std::istringstream in(text);
    std::string line;

    auto bad = [&](const std::string &message) -> std::optional<FuzzCase> {
        if (error)
            *error = message;
        return std::nullopt;
    };

    if (!std::getline(in, line) || line != "carf-fuzz-seed v1")
        return bad("missing 'carf-fuzz-seed v1' header");

    FuzzCase fuzz_case;
    size_t op_count = 0;
    bool saw_ops = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream fields(line);
        std::string key;
        fields >> key;
        if (key == "kind") {
            std::string kind;
            fields >> kind;
            if (!regfile::registry().find(kind))
                return bad("unknown file kind '" + kind + "'");
            fuzz_case.config.backend = kind;
        } else if (key == "entries") {
            fields >> fuzz_case.config.entries;
        } else if (key == "threads") {
            fields >> fuzz_case.config.threads;
        } else if (key == "d") {
            unsigned d = 0;
            fields >> d;
            fuzz_case.config.ca.sim = regfile::SimilarityParams(
                d, fuzz_case.config.ca.sim.n());
        } else if (key == "n") {
            unsigned n = 0;
            fields >> n;
            fuzz_case.config.ca.sim = regfile::SimilarityParams(
                fuzz_case.config.ca.sim.d(), n);
        } else if (key == "long") {
            fields >> fuzz_case.config.ca.longEntries;
        } else if (key == "stall") {
            fields >> fuzz_case.config.ca.issueStallThreshold;
        } else if (key == "assoc") {
            unsigned flag = 0;
            fields >> flag;
            fuzz_case.config.ca.associativeShort = flag != 0;
        } else if (key == "allocany") {
            unsigned flag = 0;
            fields >> flag;
            fuzz_case.config.ca.allocShortOnAnyResult = flag != 0;
        } else if (key == "ports") {
            fields >> fuzz_case.config.portRed.sharedReadPorts;
        } else if (key == "ops") {
            fields >> op_count;
            saw_ops = true;
            break;
        } else {
            return bad("unknown header key '" + key + "'");
        }
        if (fields.fail())
            return bad("malformed header line '" + line + "'");
    }
    if (!saw_ops)
        return bad("missing 'ops <count>' line");

    fuzz_case.ops.reserve(op_count);
    while (fuzz_case.ops.size() < op_count && std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream fields(line);
        std::string letter;
        fields >> letter;
        FuzzOp op;
        // Multithreaded op lines lead with the issuing thread index.
        if (!letter.empty() && letter[0] >= '0' && letter[0] <= '9') {
            op.tid = static_cast<u32>(
                std::strtoul(letter.c_str(), nullptr, 10));
            fields >> letter;
        }
        if (letter.size() != 1 || !opFromLetter(letter[0], op.kind))
            return bad("unknown op '" + line + "'");
        switch (op.kind) {
          case FuzzOpKind::Write:
          case FuzzOpKind::WriteForced:
            fields >> op.tag >> std::hex >> op.value;
            break;
          case FuzzOpKind::Read:
          case FuzzOpKind::Release:
            fields >> op.tag;
            break;
          case FuzzOpKind::NoteAddress:
          case FuzzOpKind::InjectShortRefLeak:
            fields >> std::hex >> op.value;
            break;
          case FuzzOpKind::RobInterval:
          case FuzzOpKind::Reset:
            break;
        }
        if (fields.fail())
            return bad("malformed op line '" + line + "'");
        fuzz_case.ops.push_back(op);
    }
    if (fuzz_case.ops.size() != op_count)
        return bad(strprintf("expected %zu ops, found %zu", op_count,
                             fuzz_case.ops.size()));
    return fuzz_case;
}

bool
FuzzCase::writeFile(const std::string &path, std::string *error) const
{
    std::ofstream file(path, std::ios::trunc);
    if (!file)
        return fail(error, "cannot open '" + path + "' for writing");
    file << serialize();
    if (!file.flush())
        return fail(error, "short write to '" + path + "'");
    return true;
}

std::optional<FuzzCase>
FuzzCase::loadFile(const std::string &path, std::string *error)
{
    std::ifstream file(path);
    if (!file) {
        if (error)
            *error = "cannot open '" + path + "'";
        return std::nullopt;
    }
    std::ostringstream text;
    text << file.rdbuf();
    return parse(text.str(), error);
}

} // namespace carf::testing
