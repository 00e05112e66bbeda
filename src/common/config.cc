#include "common/config.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/logging.hh"

namespace carf
{

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    noteRead(key);
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    noteRead(key);
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

u64
Config::getU64(const std::string &key, u64 def) const
{
    noteRead(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    u64 v = std::strtoull(text, &end, 0);
    // strtoull wraps a leading '-' and saturates on overflow; both
    // would turn a typo into a near-infinite budget.
    if (end == text || *end != '\0' || errno == ERANGE ||
        std::strchr(text, '-'))
        fatal("config %s: '%s' is not an unsigned integer that fits "
              "in 64 bits",
              key.c_str(), text);
    return v;
}

u32
Config::getU32(const std::string &key, u32 def) const
{
    u64 v = getU64(key, def);
    if (v > 0xffffffffull)
        fatal("config %s: '%s' is not an unsigned integer that fits "
              "in 32 bits",
              key.c_str(), getString(key, "").c_str());
    return static_cast<u32>(v);
}

double
Config::getDouble(const std::string &key, double def) const
{
    noteRead(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("config %s: '%s' is not a number",
              key.c_str(), it->second.c_str());
    return v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    noteRead(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::string &s = it->second;
    if (s == "true" || s == "1" || s == "yes" || s == "on")
        return true;
    if (s == "false" || s == "0" || s == "no" || s == "off")
        return false;
    fatal("config %s: '%s' is not a boolean", key.c_str(), s.c_str());
}

std::vector<std::string>
Config::getList(const std::string &key, const std::string &def) const
{
    return splitList(getString(key, def));
}

bool
Config::parseToken(const std::string &token)
{
    auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    set(token.substr(0, eq), token.substr(eq + 1));
    return true;
}

void
Config::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (!parseToken(argv[i]))
            fatal("malformed argument '%s' (expected key=value)", argv[i]);
    }
}

std::string
Config::dump() const
{
    std::ostringstream os;
    for (const auto &[k, v] : values_)
        os << k << '=' << v << '\n';
    return os.str();
}

void
Config::noteRead(const std::string &key) const
{
    if (checked_ && !read_.count(key))
        panic("config key '%s' read after the unread-key check",
              key.c_str());
    read_.insert(key);
}

void
Config::rejectUnreadKeys(const std::string &where) const
{
    checked_ = true;
    std::string unread, known;
    size_t count = 0;
    for (const auto &kv : values_) {
        if (read_.count(kv.first))
            continue;
        unread += (unread.empty() ? "'" : ", '") + kv.first + "'";
        ++count;
    }
    if (!count)
        return;
    for (const std::string &key : read_)
        known += (known.empty() ? "" : ", ") + key;
    fatal("%s: unknown key%s %s (keys read: %s)", where.c_str(),
          count > 1 ? "s" : "", unread.c_str(), known.c_str());
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    for (size_t start = 0; start < csv.size();) {
        size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > start)
            out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

} // namespace carf
