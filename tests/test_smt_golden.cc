/**
 * @file
 * Golden wall: the stripped full-fidelity JSON of every T=1, T=2 and
 * T=4 run over the benchmark's named SMT mixes, on every built-in
 * register-file backend, is pinned by its SHA-256, plus one sampled
 * content-aware run. T=1 runs the mix's lead workload alone, so those
 * rows pin the solo core across commits. A change that only
 * restructures or speeds up the core must leave every hash unchanged;
 * a deliberate model change re-pins the table and says which runs
 * moved.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash.hh"
#include "core/pipeline.hh"
#include "sim/reporting.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace carf
{

namespace
{

/** One named mix: the lead workload plus the partner list. */
struct Mix
{
    const char *lead;
    std::vector<std::string> partners;
};

const std::map<std::string, Mix> &
mixes()
{
    static const std::map<std::string, Mix> table = {
        {"hash_table", {"hash_table", {}}},
        {"mem_chase_counters", {"mem_chase", {"counters"}}},
        {"crc_daxpy", {"crc", {"daxpy"}}},
    };
    return table;
}

/**
 * The four built-in backends with the rename pools scaled to the
 * thread count, as bench/ablation_smt scales them.
 */
core::CoreParams
goldenParams(const std::string &backend, unsigned threads)
{
    core::CoreParams p = core::CoreParams::forBackend(backend);
    p.smtThreads = threads;
    if (backend == "unlimited") {
        p.physIntRegs = 128 + 32 * threads;
        p.physFpRegs = 128 + 32 * threads;
    } else {
        p.physIntRegs = 80 + 32 * threads;
        p.physFpRegs = 96 + 32 * threads;
    }
    return p;
}

/** SHA-256 of the host-time-stripped JSON of one pinned run. */
std::string
goldenDigest(const std::string &mix, unsigned threads,
             const std::string &backend, bool fast_path)
{
    const Mix &m = mixes().at(mix);
    sim::SimOptions options;
    options.maxInsts = 20000;
    options.smtMix = m.partners;
    options.fastPath = fast_path;
    core::RunResult r = sim::simulate(workloads::findWorkload(m.lead),
                                      goldenParams(backend, threads),
                                      options);
    return Sha256::hashHex(sim::runResultJsonFull(r, false));
}

/**
 * As above for a run that drains every thread (the core's run(sources,
 * false)), over the aggregate and every per-thread record: this pins
 * per-thread attribution and the tail where fewer threads remain.
 */
std::string
drainAllDigest(const std::string &mix, unsigned threads,
               const std::string &backend)
{
    const Mix &m = mixes().at(mix);
    std::vector<std::unique_ptr<emu::TraceSource>> traces;
    std::vector<emu::TraceSource *> sources;
    for (unsigned t = 0; t < threads; ++t) {
        std::string name = t == 0 || m.partners.empty()
                               ? m.lead
                               : m.partners[(t - 1) % m.partners.size()];
        traces.push_back(workloads::makeTrace(
            workloads::findWorkload(name), 10000));
        sources.push_back(traces.back().get());
    }
    core::SmtPipeline core(goldenParams(backend, threads), threads);
    core::SmtResult r = core.run(sources, false);
    std::string all = sim::runResultJsonFull(r.aggregate(), false);
    for (const core::RunResult &t : r.threads)
        all += "\n" + sim::runResultJsonFull(t, false);
    return Sha256::hashHex(all);
}

/**
 * Pinned digests, keyed "T<threads>_<mix>_<backend>" (simulate())
 * and the same key + "_all" (drain-all run).
 */
const std::map<std::string, std::string> &
pinned()
{
    static const std::map<std::string, std::string> table = {
        {"T1_hash_table_baseline",
     "13660b452d2a7cb0a833d722cde17d10b35717f6755a6a4a2b3e18bcc8bbfb09"},
        {"T1_hash_table_content_aware",
     "f504ea1360ec4c12ec7c997499a9663d17dfbc96e44871deddb6d136e07e4f6a"},
        {"T1_hash_table_port_reduction",
     "508e87bf00941a6d1c67ec9a42b691ff72c0988ce72263e90125b913712b0252"},
        {"T1_hash_table_unlimited",
     "b8972e6e1de4f2eca7077b8fadc6b981301b24463332dade7fb412e57361f941"},
        {"T1_mem_chase_counters_baseline",
     "db436f8ff152a5bdd01bcff6d73493be43fb498a2600bcfceaa6519759e6ce49"},
        {"T1_mem_chase_counters_content_aware",
     "7a19fc65ae63f029c656d836f54bb09582a704b711829ca2706d4e87216245e5"},
        {"T1_mem_chase_counters_port_reduction",
     "902f539e818009c589465c1256cc43e9f80352f97df620b888179cde5875cfce"},
        {"T1_mem_chase_counters_unlimited",
     "28692f4569ff4023a6d71a67862af709acb7e4d04c08ca963c13ce32f36a8819"},
        {"T1_crc_daxpy_baseline",
     "558dc69ab46fa72e2d91d453b5fb85ebc032b5366476d157a8ae50592fd037e3"},
        {"T1_crc_daxpy_content_aware",
     "48d5edefb9527486c9cddb33ce00ccee29eac1bad35a1731ab3bdfc04e309477"},
        {"T1_crc_daxpy_port_reduction",
     "4b1b4424587fc837daa8f8fc689b0579367f1c04064b3a02e29cbbc09cc9710f"},
        {"T1_crc_daxpy_unlimited",
     "2c7094682dc04d98cec24e16459dc94abffa5fb4c4adc4b9406b6ca36639a719"},
        {"T2_hash_table_baseline",
         "73c88edbbee4f156cf5d7e566ca9649d3e0e11156ac5d2d43de20370c9eca371"},
        {"T2_hash_table_content_aware",
         "d3af25df1fe98c89760f4531751008bf5a1e58aee24b0b1553a6f749d2114b05"},
        {"T2_hash_table_port_reduction",
         "facd1bb275d9b091994add434973b02d75ccf50dc95671ed4d58011a68216134"},
        {"T2_hash_table_unlimited",
         "59d0984471d5ca1e0a3d44b2865ba09cc727b81b70894811f75bd038e0fc32fa"},
        {"T2_mem_chase_counters_baseline",
         "915e44c07359bc2b08c16d38ffbf8c6710dd4c2983b77faa023a182ae886bda0"},
        {"T2_mem_chase_counters_content_aware",
         "1f25d014fcf419d3d34849554c459f54b4abf685ac9f2942efac02c6b70cdea6"},
        {"T2_mem_chase_counters_port_reduction",
         "f42e53a3601363b9f59639b571585e892aa5f5b8512dc319ab497eb05429f38f"},
        {"T2_mem_chase_counters_unlimited",
         "4aad86f5ae0c4af503db7e61edfbc858ab18c5d4f010f7f7d47095f98af17a80"},
        {"T2_crc_daxpy_baseline",
         "cc2869ebcd4bbec3bd7264693de96064655feb5bdfb16ebe54aeb6b03dc312d7"},
        {"T2_crc_daxpy_content_aware",
         "b0e38f62b678cd0acaaa1c9d0114aaa860dc1d5a3773738fa50932aa07ea2a6f"},
        {"T2_crc_daxpy_port_reduction",
         "a539ee15e5531b097e992eff0e665151e3909472ade4d5e5eb39c6d2ea83b6b4"},
        {"T2_crc_daxpy_unlimited",
         "18f40818cc2037bfcee6cbe366e5821e93ef04acb342ff14e49813137d01149d"},
        {"T4_hash_table_baseline",
         "33506c09c4efedfb8bb4d36f659f0e85d621b2a778dbd26824406f609cb8dc8a"},
        {"T4_hash_table_content_aware",
         "fb2d13f7165607e7a5c15d2803b48e06478c3c05e3e763f56f99cbc49fe39aaf"},
        {"T4_hash_table_port_reduction",
         "8217f4e1421870785bc0d1873817d4ebcdebc637fdaec66970a02ffc106f67c0"},
        {"T4_hash_table_unlimited",
         "c516e719560457a78e2372f1807b94dfd07653cb574250711de2cfd5e0b09567"},
        {"T4_mem_chase_counters_baseline",
         "ce2ecb3a75f8c2039a9df40eaf79367e3b6f0d7729bb5b16b031f43e8000872c"},
        {"T4_mem_chase_counters_content_aware",
         "5223f2bb90a6e9e2e2cb3cfdfa74554dff5b785be1f2916c70661838bf9c0eef"},
        {"T4_mem_chase_counters_port_reduction",
         "133987e32ffa8c63d4ea487415e508edba5e0f323ff5066caa3243f4a27bf1d3"},
        {"T4_mem_chase_counters_unlimited",
         "9cd9f8b5a2935706d850e038036581b22ba1aea19c26ee04a0296a9ff891f9dd"},
        {"T4_crc_daxpy_baseline",
         "3b3beb35d4bc9120e27b4fd300ae31503f5ba9bfd975f541365cd39b45d747e4"},
        {"T4_crc_daxpy_content_aware",
         "35b5a901ef9383ec8ce72a301eec984a62965b1dda4b4f3c231c33de6d8cffd7"},
        {"T4_crc_daxpy_port_reduction",
         "7a8b8a15eda925bfc49e734d815099aba6135f1f855c83eb1c4c0e53bb67d07a"},
        {"T4_crc_daxpy_unlimited",
         "4ba472cbaa433e138ba705f299e1996339159be58ef1d2d6c7565721c17507e4"},
        {"T1_hash_table_baseline_all",
     "f2a21af6f8773e2d67a2b0a0883181e7b115c8e5d3a7bbe7ab4f57cc523680d9"},
        {"T1_hash_table_content_aware_all",
     "194e7248d6e0bec3f732c44ebaa7d8321a8f384a4071690466d3c3a902cf9c4d"},
        {"T1_hash_table_port_reduction_all",
     "ec0155e6f83e389e3f1f849ed1d2fee4c8253dd3b2bf5981be25593c8af6e6ea"},
        {"T1_hash_table_unlimited_all",
     "14e122a70142ed64435fbfdf242dcbf00186451edb52b2ad1ae981747719cc71"},
        {"T1_mem_chase_counters_baseline_all",
     "d4ebc2b373e6eae7145012cb89dc1cf3d61eab91a8f454b76700e511c71eecfa"},
        {"T1_mem_chase_counters_content_aware_all",
     "7af37b8c8f638ccd89c76fa22cea9410deef88dc8abceaeca50f327a64398612"},
        {"T1_mem_chase_counters_port_reduction_all",
     "e2c658f9f5cd06b7818940cf85d934cdd8fa8cdbfa54fa38c86ec8979d416d2f"},
        {"T1_mem_chase_counters_unlimited_all",
     "e3fefa331311fa3f8a6b6cd08f1cbece84674a85040da052b37e14b4a56163ed"},
        {"T1_crc_daxpy_baseline_all",
     "1033d5f2e2912ec81530576391d11a663d95d1fcab7f66de39179f5fa2d94a19"},
        {"T1_crc_daxpy_content_aware_all",
     "08cdddd30906d5f158fa1e3d5f70e595d5311960f185efa43f23d1039d789964"},
        {"T1_crc_daxpy_port_reduction_all",
     "3135e32e9cf6a410434789de4412460e9cc3445219f7c321edf6c4c217ec2b84"},
        {"T1_crc_daxpy_unlimited_all",
     "33eaf5bc681e8efa63c4e99e6aa35046f10fbe583e2770a6ebb3fea40331a5a6"},
        {"T2_hash_table_baseline_all",
         "715be03b76acf78b9ea42b2cf2362d7bf42f9a7b1524694a7fae519f350c8a26"},
        {"T2_hash_table_content_aware_all",
         "ec7f4d27c82e1e3b8aa7875ee669032f9801a2d85cfe082f6c1299d75f798393"},
        {"T2_hash_table_port_reduction_all",
         "6660b9635c570ebf2762c4e3325f2c5d57536068bd9df5809678dc6650a8caa9"},
        {"T2_hash_table_unlimited_all",
         "1c13a183f6353e189e92c114ff1a1b167112325614774b17109d768612397551"},
        {"T2_mem_chase_counters_baseline_all",
         "7f23f08850f50434eb9a55e9138ef9e0c7dbbddb70485a17e7fd9811b23e7242"},
        {"T2_mem_chase_counters_content_aware_all",
         "4ac2cd641a31930096020e03c20bcab23a490de721d6c115581bbaf1aafe9ed6"},
        {"T2_mem_chase_counters_port_reduction_all",
         "5d36cd2c89ee44eed5699cb3ab6c15862718a37a0b5073d32b2eb194174b6b70"},
        {"T2_mem_chase_counters_unlimited_all",
         "172d9a0cedf9f67a9c88206b46219e9dde97aba0df44fb6a56713ebfffe4fb38"},
        {"T2_crc_daxpy_baseline_all",
         "53357530347d4caa0ca3129f168687057ad16c255d2dd2e0ace8d066fcbe297c"},
        {"T2_crc_daxpy_content_aware_all",
         "4708d59be18122f295bc6f6844d1b7041bc7dd916ef6313dda17253dd3a9fb1b"},
        {"T2_crc_daxpy_port_reduction_all",
         "81c0d184445ee72b130fd9a721dbc961fda7f6ddb093ebb419600c474c97042f"},
        {"T2_crc_daxpy_unlimited_all",
         "c2a43fdefc73a8dc68b3bec7e5a5792c9f0af08da9aee383c59c8612903a8d33"},
        {"T4_hash_table_baseline_all",
         "dd9dfd13121f693d30f5bd364b6bba0e767868550516875dbb192862c5ff4788"},
        {"T4_hash_table_content_aware_all",
         "32491a176b9a217d245521a450907df13aeb5fd7b4b310e8fcac7acbdd06e0fb"},
        {"T4_hash_table_port_reduction_all",
         "a2de5ae8be3ffb5740875d77ccf65e78521fc126fa8d81254b9af73073bb0c85"},
        {"T4_hash_table_unlimited_all",
         "60019a975b81c7fb8728584c4d5649612af9693bd0d4824b9513ce3128478d37"},
        {"T4_mem_chase_counters_baseline_all",
         "4a1acb8267740b0673b2a047a67bd4cf716ede9cf139a840b528712622381efe"},
        {"T4_mem_chase_counters_content_aware_all",
         "ab5365e8948df2ad598ce08e1124b3e4e1f13fcfeb9af2171512548723f82b44"},
        {"T4_mem_chase_counters_port_reduction_all",
         "dc7b9f2e86ebda92c5ee2220519cc7ed00993a112125a4e357965def3f059b3e"},
        {"T4_mem_chase_counters_unlimited_all",
         "74521de4c614751eabe92878f4156ca80a90650b85e53e646163e9aa3bd3c7c1"},
        {"T4_crc_daxpy_baseline_all",
         "cdf1bfe57018b82ed38430e5d6aea4383984ead720ada1db6c16919214cf5061"},
        {"T4_crc_daxpy_content_aware_all",
         "aae8ea238408fbf2c127450184fbf2ce90b380086efae2b51091ce7fe1277eff"},
        {"T4_crc_daxpy_port_reduction_all",
         "3e8553f56715b94000baa946305bb5ceb219ef7577dbe1371f615ad394e6f564"},
        {"T4_crc_daxpy_unlimited_all",
         "a26acaa80bc625b411a84c8609b98d1748736fe66dccbb591937020a5e521022"},
    };
    return table;
}

using GoldenCase = std::tuple<unsigned, std::string, std::string>;

std::string
goldenKey(const GoldenCase &c)
{
    std::string key = "T" + std::to_string(std::get<0>(c)) + "_" +
                      std::get<1>(c) + "_" + std::get<2>(c);
    for (char &ch : key)
        if (ch == '-')
            ch = '_';
    return key;
}

class SmtGolden : public ::testing::TestWithParam<GoldenCase>
{
};

} // namespace

TEST_P(SmtGolden, StrippedJsonMatchesPinnedHash)
{
    auto [threads, mix, backend] = GetParam();
    std::string key = goldenKey(GetParam());
    std::string digest = goldenDigest(mix, threads, backend, true);
    auto it = pinned().find(key);
    // The message is the table line, ready to paste when re-pinning.
    std::string line = "{\"" + key + "\",\n     \"" + digest + "\"},";
    ASSERT_NE(it, pinned().end()) << "no pin:\n" << line;
    EXPECT_EQ(digest, it->second) << line;
}

TEST_P(SmtGolden, DrainAllRecordsMatchPinnedHash)
{
    auto [threads, mix, backend] = GetParam();
    std::string key = goldenKey(GetParam()) + "_all";
    std::string digest = drainAllDigest(mix, threads, backend);
    auto it = pinned().find(key);
    std::string line = "{\"" + key + "\",\n     \"" + digest + "\"},";
    ASSERT_NE(it, pinned().end()) << "no pin:\n" << line;
    EXPECT_EQ(digest, it->second) << line;
}

TEST(SoloGolden, SampledContentAwareMatchesPinnedHash)
{
    sim::SimOptions options;
    options.maxInsts = 60000;
    options.samplingPeriod = 10000;
    core::RunResult r = sim::simulate(
        workloads::findWorkload("hash_table"),
        core::CoreParams::contentAware(), options);
    std::string digest = Sha256::hashHex(sim::runResultJsonFull(r, false));
    EXPECT_EQ(digest, "4abf19707a687d302f85a305612195d5"
                      "4788ed1be59d040e5d97b86097dbec89");
}

INSTANTIATE_TEST_SUITE_P(
    NamedMixes, SmtGolden,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values("hash_table",
                                         "mem_chase_counters",
                                         "crc_daxpy"),
                       ::testing::Values("baseline", "content-aware",
                                         "port-reduction", "unlimited")),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return goldenKey(info.param);
    });

} // namespace carf
