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
#include <set>
#include <string>
#include <vector>

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

    bool has(const std::string &key) const;

    /**
     * Typed getters with defaults; fatal() on unparsable values,
     * values outside 64 bits, and (getU64) any minus sign. Every
     * getter, and has(), records @p key as read.
     */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    u64 getU64(const std::string &key, u64 def) const;
    /** As getU64(), and fatal() past 2^32-1 (32-bit fields). */
    u32 getU32(const std::string &key, u32 def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;
    /** Comma-separated list; empty items are dropped. */
    std::vector<std::string> getList(const std::string &key,
                                     const std::string &def) const;

    /**
     * Parse a "key=value" token into the store.
     * @retval false when the token has no '='.
     */
    bool parseToken(const std::string &token);

    /** Parse argv[1..argc) tokens; fatal() on malformed tokens. */
    void parseArgs(int argc, char **argv);

    /** Render "key=value" lines in key order. */
    std::string dump() const;

    /**
     * Fatal when a set key was never read, naming each unread key and
     * listing the read ones; @p where prefixes the message. Every
     * key=value command line calls this after reading its keys and
     * before its first simulation. Reading a new key afterwards
     * panics: it would have escaped the check.
     */
    void rejectUnreadKeys(const std::string &where) const;

    /** Keys looked up so far, by a getter or has(). */
    const std::set<std::string> &readKeys() const { return read_; }

  private:
    void noteRead(const std::string &key) const;

    std::map<std::string, std::string> values_;
    mutable std::set<std::string> read_;
    mutable bool checked_ = false;
};

/** Split a comma-separated list; empty items are dropped. */
std::vector<std::string> splitList(const std::string &csv);

} // namespace carf

#endif // CARF_COMMON_CONFIG_HH
