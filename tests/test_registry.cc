/**
 * @file
 * Tests for the register-file backend registry and the RegisterFile
 * hook contract: built-in registration, factory construction, fatal
 * diagnostics for unknown/duplicate names, external self-registration
 * through RegFileRegistrar (with the flat default geometry), the
 * core's arbitration of the port-reduction backend's read-port pool,
 * and exact pins of the registry-geometry energy/area/delay path.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "core/params.hh"
#include "core/pipeline.hh"
#include "energy/report.hh"
#include "regfile/baseline.hh"
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
        // The hook contract holds on a fresh instance of any model.
        EXPECT_EQ(rf->checkInvariants(), "") << name;
        // Only a port-reduction model declares a shared read-port
        // pool, and then the one its parameters size.
        EXPECT_EQ(rf->readPortPool(), name == "port-reduction"
                                          ? params.portRed.sharedReadPorts
                                          : 0u)
            << name;
        // Every registration carries a complete static geometry.
        const auto &geometry = regfile::registry().at(name).geometry;
        auto banks = geometry.banks(params.regFileParams());
        EXPECT_FALSE(banks.empty()) << name;
        EXPECT_FALSE(
            geometry.energyTerms(banks, regfile::AccessCounts{}, 0).empty())
            << name;
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
 * contract, implementing the four hooks without a default.
 */
class TestZooRegFile : public regfile::RegisterFile
{
  public:
    TestZooRegFile(std::string name, unsigned entries)
        : RegisterFile(std::move(name), entries), file_(entries)
    {
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
        file_.at(tag) = {true, regfile::flatValueType(value), value, 0};
        countWrite(file_.at(tag).type);
        return {file_.at(tag).type, false};
    }

  private:
    std::vector<Peek> file_;
};

const regfile::RegFileRegistrar testZooRegistrar(
    "test-zoo", "registry test backend",
    [](const std::string &instance, const regfile::RegFileParams &p) {
        return std::make_unique<TestZooRegFile>(instance, p.entries);
    });

} // namespace

TEST(Registry, ExternalBackendSelfRegistersAndSimulates)
{
    ASSERT_NE(regfile::registry().find("test-zoo"), nullptr);
    auto rf = regfile::makeRegFile(
        "test-zoo", core::CoreParams::baseline().regFileParams());
    EXPECT_EQ(rf->entries(), 112u);
    // Its writes report the flat files' taxonomy.
    EXPECT_EQ(rf->write(0, 17).type, regfile::ValueType::Simple);
    EXPECT_EQ(rf->write(1, u64{1} << 40).type, regfile::ValueType::Long);

    // End to end: the whole pipeline runs on the new backend purely
    // by name, no core changes.
    sim::SimOptions options;
    options.maxInsts = 5000;
    auto result = sim::simulate(workloads::findWorkload("counters"),
                                core::CoreParams::forBackend("test-zoo"),
                                options);
    EXPECT_EQ(result.committedInsts, options.maxInsts);
    EXPECT_EQ(result.config, "test-zoo");
    // Reporting types are no taxonomy: no operand statistics.
    EXPECT_EQ(result.cluster.localOperands, 0u);

    // A registration without geometry gets the flat 64-bit default.
    auto params = core::CoreParams::forBackend("test-zoo");
    params.intRfReadPorts = 6;
    energy::FileCost file(params);
    ASSERT_EQ(file.banks().size(), 1u);
    const energy::BankGeometry &bank = file.banks().front();
    EXPECT_EQ(bank.label, "file");
    EXPECT_EQ(bank.entries, 112u);
    EXPECT_EQ(bank.widthBits, 64u);
    EXPECT_EQ(bank.readPorts, 6u);
    EXPECT_EQ(bank.writePorts, 6u);
    regfile::AccessCounts counts;
    counts.reads[2] = 3;
    counts.writes[1] = 2;
    EXPECT_EQ(file.energy(counts, 99),
              3 * file.model().readEnergy(bank) +
                  2 * file.model().writeEnergy(bank));
    EXPECT_EQ(sim::describeConfig(params), "test-zoo (112 regs, 6R/6W)");
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
        core::RunResult r = sim::simulate(
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
    energy::FileCost file(params);
    const std::vector<energy::BankGeometry> &banks = file.banks();
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

// --- the registry-geometry energy/area/delay path ---
//
// Exact doubles of the one evaluation path (area: ordered bank sum;
// access time: slowest bank; energy: ordered term sum). Every pinned
// value is what the former per-file helpers (caGeometry/caTotalArea/
// caMaxAccessTime/contentAwareEnergy for the content-aware file,
// conventionalEnergy over baselineGeometry/unlimitedGeometry for the
// flat files) produced, so the registry geometry reproduces them bit
// for bit.

namespace
{

core::CoreParams
withPorts(core::CoreParams params, unsigned read_ports,
          unsigned write_ports)
{
    params.intRfReadPorts = read_ports;
    params.intRfWritePorts = write_ports;
    return params;
}

struct CostPin
{
    const char *label;
    core::CoreParams params;
    double area;
    double accessTime;
    double energy;
};

regfile::AccessCounts
mixedCounts()
{
    regfile::AccessCounts counts;
    counts.reads[0] = 101; counts.reads[1] = 53; counts.reads[2] = 29;
    counts.writes[0] = 97; counts.writes[1] = 41; counts.writes[2] = 17;
    counts.shortProbeReads = 211;
    return counts;
}

void
expectPins(const std::vector<CostPin> &pins)
{
    const regfile::AccessCounts counts = mixedCounts();
    for (const CostPin &pin : pins) {
        energy::FileCost file(pin.params);
        EXPECT_EQ(file.area(), pin.area) << pin.label;
        EXPECT_EQ(file.accessTime(), pin.accessTime) << pin.label;
        EXPECT_EQ(file.energy(counts, 777), pin.energy) << pin.label;
    }
}

} // namespace

TEST(ModelHooks, ContentAwareEnergyAreaDelayMatchLegacy)
{
    // The d+n sweep and the ablation_ports points of the content-aware
    // file.
    using core::CoreParams;
    expectPins({
        {"d+n=8", CoreParams::contentAware(8), 2607660.7999999998,
         490.99351702867511, 538594.30997241428},
        {"d+n=12", CoreParams::contentAware(12), 2713225.6000000006,
         486.86310486846492, 545708.69493366685},
        {"d+n=16", CoreParams::contentAware(16), 2818790.4000000004,
         500.63786824291287, 560570.34422440722},
        {"d+n=20", CoreParams::contentAware(20), 2924355.2000000002,
         512.94964723279941, 582417.58237630653},
        {"d+n=24", CoreParams::contentAware(24), 3029920,
         524.18439301814647, 610729.27906430652},
        {"d+n=28", CoreParams::contentAware(28), 3135484.8000000003,
         534.58334044770504, 645129.75818000606},
        {"d+n=32", CoreParams::contentAware(32), 3241049.6000000001,
         544.30920626222007, 685341.9663727791},
        {"CA 8R/6W", withPorts(CoreParams::contentAware(20), 8, 6),
         2924355.2000000002, 512.94964723279941, 582417.58237630653},
        {"CA 6R/4W", withPorts(CoreParams::contentAware(20), 6, 4),
         2046044.8000000003, 470.84356838613945, 495470.44758052554},
        {"CA 4R/3W", withPorts(CoreParams::contentAware(20), 4, 3),
         1507801.6000000001, 435.88745112738542, 430260.09648368979},
    });
}

TEST(ModelHooks, FlatBackendEnergyMatchesConventional)
{
    // The paper's flat files and the ablation_ports points of the
    // baseline.
    using core::CoreParams;
    expectPins({
        {"unlimited", CoreParams::unlimited(), 10944704,
         791.81629409565721, 2323484.8000000003},
        {"baseline", CoreParams::baseline(), 3597196.8000000003,
         603.94816902945172, 1129983.9600000002},
        {"port-reduction(3)", CoreParams::portReduction(3),
         2138508.8000000003, 538.99212586220074, 870939.16000000015},
        {"baseline 8R/6W", withPorts(CoreParams::baseline(), 8, 6),
         3597196.8000000003, 603.94816902945172, 1129983.9600000002},
        {"baseline 6R/4W", withPorts(CoreParams::baseline(), 6, 4),
         2398707.2000000002, 552.71816078090478, 922748.12000000023},
        {"baseline 4R/3W", withPorts(CoreParams::baseline(), 4, 3),
         1665420.8, 510.18743304382917, 767321.24000000022},
    });

    // A flat file charges every read and write to its one bank.
    regfile::AccessCounts counts;
    counts.reads[0] = 12345;
    counts.writes[0] = 6789;
    EXPECT_EQ(energy::FileCost(CoreParams::baseline()).energy(counts, 0),
              63333123.624000013);
    EXPECT_EQ(energy::FileCost(CoreParams::unlimited()).energy(counts, 0),
              130226229.12);
}

TEST(ModelHooks, ConfiguredPortsReachTheBanks)
{
    // The ports a run is configured with are the ports its file is
    // evaluated at: Simple and Long at the core ports, Short with one
    // extra read port per write port and two write ports.
    Config config;
    config.set("read_ports", "4");
    config.set("write_ports", "3");
    sim::SimOptions options;
    energy::FileCost file(
        sim::configureRun(config, options, "content-aware"));
    const std::vector<energy::BankGeometry> &banks = file.banks();
    ASSERT_EQ(banks.size(), 3u);
    const unsigned expected[3][2] = {{4, 3}, {7, 2}, {4, 3}};
    for (size_t b = 0; b < banks.size(); ++b) {
        EXPECT_EQ(banks[b].readPorts, expected[b][0]) << banks[b].label;
        EXPECT_EQ(banks[b].writePorts, expected[b][1]) << banks[b].label;
    }
    EXPECT_LT(file.area(),
              energy::FileCost(core::CoreParams::contentAware()).area());
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
