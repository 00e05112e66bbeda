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

void
Config::setU64(const std::string &key, u64 value)
{
    values_[key] = std::to_string(value);
}

void
Config::setDouble(const std::string &key, double value)
{
    std::ostringstream os;
    os << value;
    values_[key] = os.str();
}

void
Config::setBool(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

u64
Config::getU64(const std::string &key, u64 def) const
{
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

i64
Config::getI64(const std::string &key, i64 def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    i64 v = std::strtoll(text, &end, 0);
    if (end == text || *end != '\0' || errno == ERANGE)
        fatal("config %s: '%s' is not an integer that fits in 64 bits",
              key.c_str(), text);
    return v;
}

double
Config::getDouble(const std::string &key, double def) const
{
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

} // namespace carf
