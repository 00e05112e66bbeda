/**
 * @file
 * String-keyed factory registry for register-file backends.
 *
 * Every RegisterFile implementation registers itself under a stable
 * name ("baseline", "content-aware", "port-reduction", ...); the core
 * instantiates whatever name its parameters carry, so adding a new
 * organization touches no pipeline code, no bench driver, and no
 * fuzzer — registration alone makes a backend simulatable,
 * benchmarkable, and fuzzable everywhere.
 *
 * A registration also carries the backend's storage geometry as
 * static functions of its parameters (Registry::Geometry): the banks
 * and energy terms the Rixner model in src/energy evaluates, and the
 * configuration-description suffix. Reports read them without
 * building a model; a registration that supplies none gets one flat
 * 64-bit file.
 *
 * Built-in backends live in their own translation units and are
 * registered on first use of registry() (which also anchors their
 * archive members against linker dead-stripping); external backends —
 * tests, experiments — self-register with a static RegFileRegistrar.
 * See DESIGN.md "Register-file backend zoo" for the how-to.
 */

#ifndef CARF_REGFILE_REGISTRY_HH
#define CARF_REGFILE_REGISTRY_HH

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "energy/rixner.hh"
#include "regfile/baseline.hh"
#include "regfile/content_aware.hh"

namespace carf::regfile
{

/**
 * Aggregate construction parameters understood by every backend. A
 * backend picks the members it needs and ignores the rest, so one
 * parameter bundle travels from CoreParams to any factory.
 */
struct RegFileParams
{
    /** Physical tags. */
    unsigned entries = 112;
    /** Core-side read/write ports (the banks' port counts). */
    unsigned readPorts = 8;
    unsigned writePorts = 6;
    /** Hardware threads sharing the file (sizes per-thread counters). */
    unsigned threads = 1;
    /** Content-aware sub-file configuration. */
    ContentAwareParams ca;
    /** Port-reduction pool configuration. */
    PortReductionParams portRed;
};

/** Name-keyed collection of backend factories. */
class Registry
{
  public:
    using Factory = std::function<std::unique_ptr<RegisterFile>(
        const std::string &instance, const RegFileParams &params)>;

    /**
     * A backend's storage as static functions of its parameters. A
     * member left empty gets the flat default: one 64-bit bank of
     * `entries` registers with the core ports, every read and write
     * charged to it, and no description suffix.
     */
    struct Geometry
    {
        /**
         * The storage banks, in canonical order. Area is their
         * ordered sum; access time is the slowest bank.
         */
        std::function<std::vector<energy::BankGeometry>(
            const RegFileParams &params)>
            banks;
        /**
         * Energy accounting of a run with access totals @p counts and
         * @p short_alloc_writes internal allocation writes, as ordered
         * terms over the @p banks that banks() built.
         */
        std::function<std::vector<energy::EnergyTerm>(
            const std::vector<energy::BankGeometry> &banks,
            const AccessCounts &counts, u64 short_alloc_writes)>
            energyTerms;
        /** Configuration-description suffix, e.g. ", d+n=20, M=8, K=48". */
        std::function<std::string(const RegFileParams &params)> describe;
    };

    struct Backend
    {
        std::string name;
        std::string description;
        Factory factory;
        /** Every member set: add() fills the flat defaults. */
        Geometry geometry;
    };

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Register a backend; fatal() on a duplicate name. */
    void add(std::string name, std::string description, Factory factory,
             Geometry geometry = {});

    /** Look up a backend; nullptr when unknown. */
    const Backend *find(const std::string &name) const;

    /** Look up a backend; fatal() with the known names when unknown. */
    const Backend &at(const std::string &name) const;

    /** All registered backend names, sorted. */
    std::vector<std::string> names() const;

  private:
    mutable std::mutex mutex_;
    /** unique_ptr members keep Backend pointers stable across add(). */
    std::vector<std::unique_ptr<Backend>> backends_;
};

/**
 * The process-wide backend registry. First use registers the built-in
 * backends, so the zoo is complete regardless of static-init order.
 */
Registry &registry();

/**
 * Instantiate backend @p name with @p params; fatal() on an unknown
 * name. @p instance names the created file for stats/log output.
 */
std::unique_ptr<RegisterFile>
makeRegFile(const std::string &name, const RegFileParams &params,
            const std::string &instance = "intRf");

/**
 * Self-registration handle for external backends: declare a static
 * RegFileRegistrar in the backend's translation unit and the backend
 * is in the zoo before main() runs.
 */
class RegFileRegistrar
{
  public:
    RegFileRegistrar(const char *name, const char *description,
                     Registry::Factory factory)
    {
        registry().add(name, description, std::move(factory));
    }
};

} // namespace carf::regfile

#endif // CARF_REGFILE_REGISTRY_HH
