/**
 * @file
 * Simple typed key/value configuration store with string parsing.
 *
 * Experiment binaries accept "key=value" overrides on the command
 * line; Config centralises parsing and validation so every bench and
 * example shares the same syntax.
 */

#ifndef CARF_COMMON_CONFIG_HH
#define CARF_COMMON_CONFIG_HH

#include <map>
#include <string>

#include "common/types.hh"

namespace carf
{

/** String-backed configuration dictionary with typed accessors. */
class Config
{
  public:
    Config() = default;

    /** Set raw value (overwrites). */
    void set(const std::string &key, const std::string &value);
    void setU64(const std::string &key, u64 value);
    void setDouble(const std::string &key, double value);
    void setBool(const std::string &key, bool value);

    bool has(const std::string &key) const;

    /**
     * Typed getters with defaults; fatal() on unparsable values,
     * values outside 64 bits, and (getU64) any minus sign.
     */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    u64 getU64(const std::string &key, u64 def) const;
    i64 getI64(const std::string &key, i64 def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /**
     * Parse a "key=value" token into the store.
     * @retval false when the token has no '='.
     */
    bool parseToken(const std::string &token);

    /** Parse argv[1..argc) tokens; fatal() on malformed tokens. */
    void parseArgs(int argc, char **argv);

    /** Render "key=value" lines in key order. */
    std::string dump() const;

  private:
    std::map<std::string, std::string> values_;
};

} // namespace carf

#endif // CARF_COMMON_CONFIG_HH
