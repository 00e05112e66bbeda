/**
 * @file
 * Tests for the register-file backend registry and the RegFileModel
 * hook contract: built-in registration, factory construction, fatal
 * diagnostics for unknown/duplicate names, external self-registration
 * through RegFileRegistrar, the core's arbitration of the
 * port-reduction backend's read-port pool, and bit-identity of the model-hook energy/area/delay
 * evaluation against the legacy content-aware/conventional helpers.
 */

#include <gtest/gtest.h>

#include "core/params.hh"
#include "core/pipeline.hh"
#include "energy/report.hh"
#include "regfile/baseline.hh"
#include "regfile/port_reduction.hh"
#include "regfile/registry.hh"
#include "sim/reporting.hh"
#include "sim/simulator.hh"

namespace carf
{

namespace
{

std::vector<std::string>
builtinNames()
{
    return {"baseline", "content-aware", "port-reduction", "unlimited"};
}

} // namespace

TEST(Registry, ListsBuiltinBackendsSorted)
{
    auto names = regfile::registry().names();
    ASSERT_GE(names.size(), 4u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    for (const std::string &name : builtinNames())
        EXPECT_NE(regfile::registry().find(name), nullptr) << name;
}

TEST(Registry, FactoryConstructsEveryRegisteredBackend)
{
    for (const std::string &name : regfile::registry().names()) {
        auto params = core::CoreParams::forBackend(name);
        auto rf = regfile::makeRegFile(name, params.regFileParams());
        ASSERT_NE(rf, nullptr) << name;
        EXPECT_EQ(rf->entries(), params.physIntRegs) << name;
        EXPECT_FALSE(rf->banks().empty()) << name;
        // The hook contract holds on a fresh instance of any model.
        EXPECT_EQ(rf->checkInvariants(), "") << name;
        // Only a port-reduction model declares a shared read-port
        // pool, and then the one its parameters size.
        EXPECT_EQ(rf->readPortPool(), name == "port-reduction"
                                          ? params.portRed.sharedReadPorts
                                          : 0u)
            << name;
        regfile::AccessCounts counts;
        EXPECT_FALSE(rf->energyTerms(counts, 0).empty()) << name;
    }
}

TEST(Registry, FindReturnsNullForUnknownName)
{
    EXPECT_EQ(regfile::registry().find("no-such-model"), nullptr);
}

TEST(RegistryDeathTest, UnknownBackendNameIsFatal)
{
    auto params = core::CoreParams::baseline();
    EXPECT_DEATH(
        regfile::makeRegFile("no-such-model", params.regFileParams()),
        "unknown register-file backend");
}

TEST(RegistryDeathTest, UnknownBackendInCoreParamsIsFatal)
{
    // The compatibility path: a CoreParams naming a missing backend
    // dies at pipeline construction with the registry diagnostic.
    auto params = core::CoreParams::forBackend("typo-backend");
    EXPECT_DEATH(core::Pipeline pipeline(params),
                 "unknown register-file backend");
}

TEST(RegistryDeathTest, DuplicateRegistrationIsFatal)
{
    EXPECT_DEATH(regfile::registry().add(
                     "baseline", "dup",
                     [](const std::string &,
                        const regfile::RegFileParams &)
                         -> std::unique_ptr<regfile::RegisterFile> {
                         return nullptr;
                     }),
                 "registered twice");
}

TEST(RegistryDeathTest, PortReductionValidatesSharedPorts)
{
    auto params = core::CoreParams::portReduction(1);
    EXPECT_DEATH(regfile::makeRegFile("port-reduction",
                                      params.regFileParams()),
                 "at least 2 shared read ports");
}

// --- external self-registration (the add-a-backend recipe) ---

namespace
{

/**
 * A minimal out-of-tree model: a flat file written against the bare
 * contract, implementing the four hooks without a default and
 * extending reset() to clear its contents.
 */
class TestZooRegFile : public regfile::RegisterFile
{
  public:
    TestZooRegFile(std::string name, unsigned entries)
        : RegisterFile(std::move(name), entries), file_(entries)
    {
    }

    void reset() override
    {
        RegisterFile::reset();
        file_.assign(entries_, Peek{});
    }
    regfile::ReadAccess read(u32 tag) override
    {
        countRead(file_.at(tag).type);
        return {file_.at(tag).value, file_.at(tag).type};
    }
    void release(u32 tag) override { file_.at(tag).live = false; }
    Peek peek(u32 tag) const override { return file_.at(tag); }

  protected:
    regfile::WriteAccess doWrite(u32 tag, u64 value, unsigned,
                                 bool) override
    {
        file_.at(tag) = {true, classifyPeek(value), value, 0};
        countWrite(file_.at(tag).type);
        return {file_.at(tag).type, false};
    }

  private:
    std::vector<Peek> file_;
};

const regfile::RegFileRegistrar testZooRegistrar(
    "test-zoo", "registry test backend",
    [](const std::string &instance, const regfile::RegFileParams &p) {
        auto rf = std::make_unique<TestZooRegFile>(instance, p.entries);
        rf->setPortGeometry(p.readPorts, p.writePorts);
        return rf;
    });

} // namespace

TEST(Registry, ExternalBackendSelfRegistersAndSimulates)
{
    ASSERT_NE(regfile::registry().find("test-zoo"), nullptr);
    auto rf = regfile::makeRegFile(
        "test-zoo", core::CoreParams::baseline().regFileParams());
    EXPECT_EQ(rf->entries(), 112u);

    // End to end: the whole pipeline runs on the new backend purely
    // by name, no core changes.
    sim::SimOptions options;
    options.maxInsts = 5000;
    auto result = sim::simulate(workloads::findWorkload("counters"),
                                core::CoreParams::forBackend("test-zoo"),
                                options);
    EXPECT_EQ(result.committedInsts, options.maxInsts);
    EXPECT_EQ(result.config, "test-zoo");
}

// --- port-reduction conflict arbitration ---

TEST(PortReduction, ConflictTotalsPinnedAtTheCore)
{
    // The core refuses issue when an instruction's file reads exceed
    // what is left of the cycle's shared pool; the totals pin where it
    // counts a refusal (after the core-port check, before the LSQ
    // check) and that the pool is shared across threads.
    struct Pin
    {
        const char *workload;
        unsigned threads;
        u64 conflictOps;
        u64 conflictCycles;
    };
    const Pin pins[] = {
        {"hash_table", 1, 1949, 1491},
        {"matvec_int", 1, 10201, 3866},
        {"hash_table", 2, 6103, 4146},
    };
    for (const Pin &pin : pins) {
        core::CoreParams params = core::CoreParams::portReduction(2);
        params.smtThreads = pin.threads;
        sim::SimOptions options;
        options.maxInsts = 20000;
        core::RunResult r = sim::simulateSmt(
            workloads::findWorkload(pin.workload), params, options);
        EXPECT_EQ(r.portConflictOps, pin.conflictOps)
            << pin.workload << " T=" << pin.threads;
        EXPECT_EQ(r.portConflictCycles, pin.conflictCycles)
            << pin.workload << " T=" << pin.threads;
    }
}

TEST(PortReduction, BanksReportSharedReadPorts)
{
    auto params = core::CoreParams::portReduction(3);
    auto rf = regfile::makeRegFile("port-reduction",
                                   params.regFileParams());
    auto banks = rf->banks();
    ASSERT_EQ(banks.size(), 1u);
    EXPECT_EQ(banks[0].readPorts, 3u);
    EXPECT_EQ(banks[0].writePorts, params.intRfWritePorts);
    EXPECT_EQ(banks[0].entries, params.physIntRegs);
}

TEST(PortReduction, FewerPortsCostIpcButNeverCorrectness)
{
    sim::SimOptions options;
    options.maxInsts = 20000;
    const auto &w = workloads::findWorkload("hash_table");
    auto wide = sim::simulate(w, core::CoreParams::baseline(), options);
    auto narrow =
        sim::simulate(w, core::CoreParams::portReduction(2), options);
    EXPECT_EQ(narrow.committedInsts, options.maxInsts);
    EXPECT_LE(narrow.ipc, wide.ipc);
    EXPECT_GT(narrow.portConflictCycles, 0u);
}

// --- model-hook evaluation vs the legacy energy/area/delay helpers ---

TEST(ModelHooks, ContentAwareEnergyAreaDelayMatchLegacy)
{
    energy::RixnerModel model;
    auto params = core::CoreParams::contentAware();
    auto rf = regfile::makeRegFile("content-aware",
                                   params.regFileParams());
    auto geom = energy::caGeometry(params.physIntRegs, params.ca,
                                   params.intRfReadPorts,
                                   params.intRfWritePorts);

    EXPECT_EQ(energy::modelArea(model, rf->banks()),
              energy::caTotalArea(model, geom));
    EXPECT_EQ(energy::modelMaxAccessTime(model, rf->banks()),
              energy::caMaxAccessTime(model, geom));

    regfile::AccessCounts counts;
    counts.reads[0] = 101; counts.reads[1] = 53; counts.reads[2] = 29;
    counts.writes[0] = 97; counts.writes[1] = 41; counts.writes[2] = 17;
    counts.shortProbeReads = 211;
    EXPECT_EQ(energy::modelEnergy(model, rf->energyTerms(counts, 777)),
              energy::contentAwareEnergy(model, geom, counts, 777));
}

TEST(ModelHooks, FlatBackendEnergyMatchesConventional)
{
    energy::RixnerModel model;
    regfile::AccessCounts counts;
    counts.reads[0] = 12345;
    counts.writes[0] = 6789;

    auto baseline = regfile::makeRegFile(
        "baseline", core::CoreParams::baseline().regFileParams());
    EXPECT_EQ(energy::modelEnergy(model,
                                  baseline->energyTerms(counts, 0)),
              energy::conventionalEnergy(
                  model, energy::baselineGeometry(), counts));

    auto unlimited = regfile::makeRegFile(
        "unlimited", core::CoreParams::unlimited().regFileParams());
    EXPECT_EQ(energy::modelEnergy(model,
                                  unlimited->energyTerms(counts, 0)),
              energy::conventionalEnergy(
                  model, energy::unlimitedGeometry(), counts));
}

TEST(ModelHooks, DescribeConfigMatchesLegacyStrings)
{
    EXPECT_EQ(sim::describeConfig(core::CoreParams::unlimited()),
              "unlimited (160 regs, 16R/8W)");
    EXPECT_EQ(sim::describeConfig(core::CoreParams::baseline()),
              "baseline (112 regs, 8R/6W)");
    EXPECT_EQ(sim::describeConfig(core::CoreParams::contentAware()),
              "content-aware (112 regs, 8R/6W, d+n=20, M=8, K=48)");
    EXPECT_EQ(sim::describeConfig(core::CoreParams::portReduction()),
              "port-reduction (112 regs, 8R/6W, shared-rd=4)");
}

} // namespace carf
