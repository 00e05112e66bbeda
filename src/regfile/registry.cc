#include "regfile/registry.hh"

#include <algorithm>

#include "common/logging.hh"

namespace carf::regfile
{

namespace detail
{
// Defined in the respective backend translation units. Calling them
// from registry() both guarantees the built-ins are registered before
// any lookup (regardless of static-init order across TUs) and forces
// the linker to keep those archive members.
void registerFlatBackends(Registry &r);
void registerContentAwareBackend(Registry &r);
} // namespace detail

namespace
{

std::vector<energy::BankGeometry>
flatBanks(const RegFileParams &params)
{
    return {{"file", params.entries, 64, params.readPorts,
             params.writePorts}};
}

std::vector<energy::EnergyTerm>
flatEnergyTerms(const std::vector<energy::BankGeometry> &banks,
                const AccessCounts &counts, u64 short_alloc_writes)
{
    (void)short_alloc_writes;
    return {
        {banks.front(), counts.totalReads(), false},
        {banks.front(), counts.totalWrites(), true},
    };
}

} // namespace

void
Registry::add(std::string name, std::string description, Factory factory,
              Geometry geometry)
{
    if (!geometry.banks)
        geometry.banks = flatBanks;
    if (!geometry.energyTerms)
        geometry.energyTerms = flatEnergyTerms;
    if (!geometry.describe)
        geometry.describe = [](const RegFileParams &) { return std::string(); };
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &b : backends_) {
        if (b->name == name)
            fatal("register-file backend '%s' registered twice", name.c_str());
    }
    auto backend = std::make_unique<Backend>();
    backend->name = std::move(name);
    backend->description = std::move(description);
    backend->factory = std::move(factory);
    backend->geometry = std::move(geometry);
    backends_.push_back(std::move(backend));
}

const Registry::Backend *
Registry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &b : backends_) {
        if (b->name == name)
            return b.get();
    }
    return nullptr;
}

const Registry::Backend &
Registry::at(const std::string &name) const
{
    if (const Backend *b = find(name))
        return *b;
    std::string known;
    for (const std::string &n : names()) {
        if (!known.empty())
            known += ", ";
        known += n;
    }
    fatal("unknown register-file backend '%s' (registered: %s)",
          name.c_str(), known.c_str());
}

std::vector<std::string>
Registry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(backends_.size());
    for (const auto &b : backends_)
        out.push_back(b->name);
    std::sort(out.begin(), out.end());
    return out;
}

Registry &
registry()
{
    static Registry r;
    static bool initialized = [] {
        detail::registerFlatBackends(r);
        detail::registerContentAwareBackend(r);
        return true;
    }();
    (void)initialized;
    return r;
}

std::unique_ptr<RegisterFile>
makeRegFile(const std::string &name, const RegFileParams &params,
            const std::string &instance)
{
    return registry().at(name).factory(instance, params);
}

} // namespace carf::regfile
