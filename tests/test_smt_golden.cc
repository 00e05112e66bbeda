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
     "bc5ebbaedc8fad81e66e63acb0b192998bbb90b3a48db6b4d5a9362c25c789fd"},
        {"T1_hash_table_port_reduction",
     "508e87bf00941a6d1c67ec9a42b691ff72c0988ce72263e90125b913712b0252"},
        {"T1_hash_table_unlimited",
     "b8972e6e1de4f2eca7077b8fadc6b981301b24463332dade7fb412e57361f941"},
        {"T1_mem_chase_counters_baseline",
     "db436f8ff152a5bdd01bcff6d73493be43fb498a2600bcfceaa6519759e6ce49"},
        {"T1_mem_chase_counters_content_aware",
     "09d8f2d020249feb32755ced9f0dd6e297202e5d8f93e343002cc1eeeffb6e60"},
        {"T1_mem_chase_counters_port_reduction",
     "902f539e818009c589465c1256cc43e9f80352f97df620b888179cde5875cfce"},
        {"T1_mem_chase_counters_unlimited",
     "28692f4569ff4023a6d71a67862af709acb7e4d04c08ca963c13ce32f36a8819"},
        {"T1_crc_daxpy_baseline",
     "558dc69ab46fa72e2d91d453b5fb85ebc032b5366476d157a8ae50592fd037e3"},
        {"T1_crc_daxpy_content_aware",
     "c9f4ac493bd52f584e4c8ce4da9ca710d2b68e793167c1f053a221f8617830a7"},
        {"T1_crc_daxpy_port_reduction",
     "4b1b4424587fc837daa8f8fc689b0579367f1c04064b3a02e29cbbc09cc9710f"},
        {"T1_crc_daxpy_unlimited",
     "2c7094682dc04d98cec24e16459dc94abffa5fb4c4adc4b9406b6ca36639a719"},
        {"T2_hash_table_baseline",
         "73c88edbbee4f156cf5d7e566ca9649d3e0e11156ac5d2d43de20370c9eca371"},
        {"T2_hash_table_content_aware",
         "7cf25f23898d270151822302f001eb3c537f87de9056a4a4fc3f3ddb474c346b"},
        {"T2_hash_table_port_reduction",
         "facd1bb275d9b091994add434973b02d75ccf50dc95671ed4d58011a68216134"},
        {"T2_hash_table_unlimited",
         "59d0984471d5ca1e0a3d44b2865ba09cc727b81b70894811f75bd038e0fc32fa"},
        {"T2_mem_chase_counters_baseline",
         "915e44c07359bc2b08c16d38ffbf8c6710dd4c2983b77faa023a182ae886bda0"},
        {"T2_mem_chase_counters_content_aware",
         "1c5afc0f989382a8341750e9ccc621eedd69930b9883b09a1a335c058922fff2"},
        {"T2_mem_chase_counters_port_reduction",
         "f42e53a3601363b9f59639b571585e892aa5f5b8512dc319ab497eb05429f38f"},
        {"T2_mem_chase_counters_unlimited",
         "4aad86f5ae0c4af503db7e61edfbc858ab18c5d4f010f7f7d47095f98af17a80"},
        {"T2_crc_daxpy_baseline",
         "cc2869ebcd4bbec3bd7264693de96064655feb5bdfb16ebe54aeb6b03dc312d7"},
        {"T2_crc_daxpy_content_aware",
         "9fdb422a5386efb567a6692700e2bc2ab47ea4487ea383b6b66775d9156da537"},
        {"T2_crc_daxpy_port_reduction",
         "a539ee15e5531b097e992eff0e665151e3909472ade4d5e5eb39c6d2ea83b6b4"},
        {"T2_crc_daxpy_unlimited",
         "18f40818cc2037bfcee6cbe366e5821e93ef04acb342ff14e49813137d01149d"},
        {"T4_hash_table_baseline",
         "33506c09c4efedfb8bb4d36f659f0e85d621b2a778dbd26824406f609cb8dc8a"},
        {"T4_hash_table_content_aware",
         "42ceaedebc5336a9ac6721335ba3d948c07698c6735ba581b375804b2ff01cef"},
        {"T4_hash_table_port_reduction",
         "8217f4e1421870785bc0d1873817d4ebcdebc637fdaec66970a02ffc106f67c0"},
        {"T4_hash_table_unlimited",
         "c516e719560457a78e2372f1807b94dfd07653cb574250711de2cfd5e0b09567"},
        {"T4_mem_chase_counters_baseline",
         "ce2ecb3a75f8c2039a9df40eaf79367e3b6f0d7729bb5b16b031f43e8000872c"},
        {"T4_mem_chase_counters_content_aware",
         "e08eec6fe924983a98fde3d5af844a79a8ac59e8f055c36881bdd269eb7af684"},
        {"T4_mem_chase_counters_port_reduction",
         "133987e32ffa8c63d4ea487415e508edba5e0f323ff5066caa3243f4a27bf1d3"},
        {"T4_mem_chase_counters_unlimited",
         "9cd9f8b5a2935706d850e038036581b22ba1aea19c26ee04a0296a9ff891f9dd"},
        {"T4_crc_daxpy_baseline",
         "3b3beb35d4bc9120e27b4fd300ae31503f5ba9bfd975f541365cd39b45d747e4"},
        {"T4_crc_daxpy_content_aware",
         "6165decaf5413cb5a2393f3cfb4b1e1cfac8edc6b523dd597947de4384820668"},
        {"T4_crc_daxpy_port_reduction",
         "7a8b8a15eda925bfc49e734d815099aba6135f1f855c83eb1c4c0e53bb67d07a"},
        {"T4_crc_daxpy_unlimited",
         "4ba472cbaa433e138ba705f299e1996339159be58ef1d2d6c7565721c17507e4"},
        {"T1_hash_table_baseline_all",
     "f2a21af6f8773e2d67a2b0a0883181e7b115c8e5d3a7bbe7ab4f57cc523680d9"},
        {"T1_hash_table_content_aware_all",
     "766c12f9328ccdf88c09ac720e00f338f18e9adb72d947d2dbba1e3832d7345c"},
        {"T1_hash_table_port_reduction_all",
     "ec0155e6f83e389e3f1f849ed1d2fee4c8253dd3b2bf5981be25593c8af6e6ea"},
        {"T1_hash_table_unlimited_all",
     "14e122a70142ed64435fbfdf242dcbf00186451edb52b2ad1ae981747719cc71"},
        {"T1_mem_chase_counters_baseline_all",
     "d4ebc2b373e6eae7145012cb89dc1cf3d61eab91a8f454b76700e511c71eecfa"},
        {"T1_mem_chase_counters_content_aware_all",
     "546296089d6f462f80a5393ad2866539c8ea4a4ceb2fa57ebfb417b7b509d477"},
        {"T1_mem_chase_counters_port_reduction_all",
     "e2c658f9f5cd06b7818940cf85d934cdd8fa8cdbfa54fa38c86ec8979d416d2f"},
        {"T1_mem_chase_counters_unlimited_all",
     "e3fefa331311fa3f8a6b6cd08f1cbece84674a85040da052b37e14b4a56163ed"},
        {"T1_crc_daxpy_baseline_all",
     "1033d5f2e2912ec81530576391d11a663d95d1fcab7f66de39179f5fa2d94a19"},
        {"T1_crc_daxpy_content_aware_all",
     "f7a5f22246e7b4f0c3e29dc209b73f2989657de6e1a15300e7cfb5591c531c7b"},
        {"T1_crc_daxpy_port_reduction_all",
     "3135e32e9cf6a410434789de4412460e9cc3445219f7c321edf6c4c217ec2b84"},
        {"T1_crc_daxpy_unlimited_all",
     "33eaf5bc681e8efa63c4e99e6aa35046f10fbe583e2770a6ebb3fea40331a5a6"},
        {"T2_hash_table_baseline_all",
         "715be03b76acf78b9ea42b2cf2362d7bf42f9a7b1524694a7fae519f350c8a26"},
        {"T2_hash_table_content_aware_all",
         "fb4bbb1444aee2b34b802149692e365828ce94c98840bc395c772add71204d04"},
        {"T2_hash_table_port_reduction_all",
         "6660b9635c570ebf2762c4e3325f2c5d57536068bd9df5809678dc6650a8caa9"},
        {"T2_hash_table_unlimited_all",
         "1c13a183f6353e189e92c114ff1a1b167112325614774b17109d768612397551"},
        {"T2_mem_chase_counters_baseline_all",
         "7f23f08850f50434eb9a55e9138ef9e0c7dbbddb70485a17e7fd9811b23e7242"},
        {"T2_mem_chase_counters_content_aware_all",
         "69ae17eae849188bf7f105225e74c73f92aa62da250dfbd9942e68366b09281f"},
        {"T2_mem_chase_counters_port_reduction_all",
         "5d36cd2c89ee44eed5699cb3ab6c15862718a37a0b5073d32b2eb194174b6b70"},
        {"T2_mem_chase_counters_unlimited_all",
         "172d9a0cedf9f67a9c88206b46219e9dde97aba0df44fb6a56713ebfffe4fb38"},
        {"T2_crc_daxpy_baseline_all",
         "53357530347d4caa0ca3129f168687057ad16c255d2dd2e0ace8d066fcbe297c"},
        {"T2_crc_daxpy_content_aware_all",
         "6da069359351d930c87a23eaf74444b6fd899c2beea0067fc8c501158c966791"},
        {"T2_crc_daxpy_port_reduction_all",
         "81c0d184445ee72b130fd9a721dbc961fda7f6ddb093ebb419600c474c97042f"},
        {"T2_crc_daxpy_unlimited_all",
         "c2a43fdefc73a8dc68b3bec7e5a5792c9f0af08da9aee383c59c8612903a8d33"},
        {"T4_hash_table_baseline_all",
         "dd9dfd13121f693d30f5bd364b6bba0e767868550516875dbb192862c5ff4788"},
        {"T4_hash_table_content_aware_all",
         "dbb3705089f3a2792a399e7abe742a4292f957a0ad54c7e0f61b6dbbb22aa513"},
        {"T4_hash_table_port_reduction_all",
         "a2de5ae8be3ffb5740875d77ccf65e78521fc126fa8d81254b9af73073bb0c85"},
        {"T4_hash_table_unlimited_all",
         "60019a975b81c7fb8728584c4d5649612af9693bd0d4824b9513ce3128478d37"},
        {"T4_mem_chase_counters_baseline_all",
         "4a1acb8267740b0673b2a047a67bd4cf716ede9cf139a840b528712622381efe"},
        {"T4_mem_chase_counters_content_aware_all",
         "8479151af2578da4530df3352c6c4cbb950c1c20d9d0212b1ddfdf5a71e00524"},
        {"T4_mem_chase_counters_port_reduction_all",
         "dc7b9f2e86ebda92c5ee2220519cc7ed00993a112125a4e357965def3f059b3e"},
        {"T4_mem_chase_counters_unlimited_all",
         "74521de4c614751eabe92878f4156ca80a90650b85e53e646163e9aa3bd3c7c1"},
        {"T4_crc_daxpy_baseline_all",
         "cdf1bfe57018b82ed38430e5d6aea4383984ead720ada1db6c16919214cf5061"},
        {"T4_crc_daxpy_content_aware_all",
         "81a28f9e5c794b7638d422662beb01b47dc104a138e3a4f44be8e7e0ebb61a36"},
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
    EXPECT_EQ(digest, "d988aa6e2ec98ca1bbfa1ad9e7a8f438"
                      "0b18e52ac29e5b0d48797357c0fd2c60");
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
