// Bit-identity and config-keying regressions for the DRAM subsystem.
//
// The contract: with dram.banks == 0 (the default), every observable
// artifact — serialized bundles, campaign JSON — is byte-identical to
// the seed revision, hash for hash. And a DRAM-enabled configuration
// must never alias a seed artifact: distinct file names, signatures,
// cache keys, and a distinct (v3) container that round-trips its
// extra accounting.

#include <gtest/gtest.h>

#include <regex>
#include <sstream>

#include "runner/campaign.h"
#include "runner/trace_store.h"
#include "sim/trace_bundle.h"
#include "trace/trace_io.h"
#include "util/byte_io.h"

namespace dsmem {
namespace {

/**
 * Seed-captured FNV-1a hashes of saveBundle's output for every
 * registry app (small, default MemoryConfig). Any diff here means the
 * default path is no longer bit-identical to the seed — either an
 * intended format change (recapture after bumping
 * kBundleFormatVersion) or a real regression in phase 1.
 */
struct GoldenBundle {
    sim::AppId app;
    uint64_t hash;
    size_t bytes;
};

constexpr GoldenBundle kGoldenBundles[] = {
    {sim::AppId::MP3D, 0x96a84c8f22149797ull, 57379},
    {sim::AppId::LU, 0x819409d1aca99f72ull, 128817},
    {sim::AppId::PTHOR, 0xb41c910a10ebfc5dull, 138453},
    {sim::AppId::LOCUS, 0x421563e910a35bcaull, 63605},
    {sim::AppId::OCEAN, 0x88ad91edf30f49b5ull, 100976},
};

constexpr uint64_t kGoldenCampaignJson = 0x61152b4fe56e2bc3ull;
constexpr size_t kGoldenCampaignJsonBytes = 3906;

std::string
serializeBundle(const sim::TraceBundle &bundle)
{
    std::ostringstream os(std::ios::binary);
    runner::saveBundle(bundle, os);
    return std::move(os).str();
}

uint64_t
fnv(const std::string &bytes)
{
    return util::fnv1aUpdate(util::kFnvOffset, bytes.data(),
                             bytes.size());
}

/** A small but non-trivial DRAM configuration for the tests. */
memsys::MemoryConfig
dramConfig(memsys::SchedPolicy sched = memsys::SchedPolicy::FR_FCFS)
{
    memsys::MemoryConfig mem;
    mem.dram.banks = 4;
    mem.dram.sched = sched;
    return mem;
}

// ---------------------------------------------------------------------
// Bit identity of the default (dram-off) path
// ---------------------------------------------------------------------

TEST(BitIdentityTest, DefaultConfigBundlesMatchSeedGoldens)
{
    for (const GoldenBundle &g : kGoldenBundles) {
        sim::TraceBundle b =
            sim::generateTrace(g.app, memsys::MemoryConfig{}, true);
        std::string bytes = serializeBundle(b);
        EXPECT_EQ(bytes.size(), g.bytes) << sim::appName(g.app);
        EXPECT_EQ(fnv(bytes), g.hash) << sim::appName(g.app);
    }
}

/**
 * The store's cold path never builds the AoS trace: the engine's
 * capture drains into a view, and the bundle is written from it. Its
 * bytes are the same goldens, and the same as the AoS writer's for
 * the v3 (DRAM) container too.
 */
TEST(BitIdentityTest, ViewShapedBundlesMatchSeedGoldens)
{
    auto serializeView = [](const sim::ViewBundle &vb) {
        std::ostringstream os(std::ios::binary);
        runner::saveBundle(vb, os);
        return std::move(os).str();
    };
    for (const GoldenBundle &g : kGoldenBundles) {
        std::string bytes = serializeView(
            sim::generateView(g.app, memsys::MemoryConfig{}, true));
        EXPECT_EQ(bytes.size(), g.bytes) << sim::appName(g.app);
        EXPECT_EQ(fnv(bytes), g.hash) << sim::appName(g.app);
    }
    const memsys::MemoryConfig dram = dramConfig();
    EXPECT_EQ(serializeView(sim::generateView(sim::AppId::LU, dram, true)),
              serializeBundle(sim::generateTrace(sim::AppId::LU, dram, true)));
}

/**
 * The v3 (DRAM) bundles of every small app as the AoS recorder wrote
 * them before phase 1 recorded straight into the compressed capture.
 * The DRAM model patches store latencies after issue, so these pin
 * the held-back chunks (test_engine's straddle test forces one).
 */
constexpr GoldenBundle kGoldenDramBundles[] = {
    {sim::AppId::MP3D, 0x66d00bb30c3b7a61ull, 58028},
    {sim::AppId::LU, 0x554983aefb7a343eull, 129066},
    {sim::AppId::PTHOR, 0x74098eeaa988a8f9ull, 140370},
    {sim::AppId::LOCUS, 0x53287d63176a5caeull, 62903},
    {sim::AppId::OCEAN, 0x83477d654b1dbfecull, 103007},
};

TEST(BitIdentityTest, DramCaptureBundlesMatchGoldens)
{
    for (const GoldenBundle &g : kGoldenDramBundles) {
        std::ostringstream os(std::ios::binary);
        runner::saveBundle(sim::generateView(g.app, dramConfig(), true),
                           os);
        const std::string bytes = std::move(os).str();
        EXPECT_EQ(bytes.size(), g.bytes) << sim::appName(g.app);
        EXPECT_EQ(fnv(bytes), g.hash) << sim::appName(g.app);
    }
}

/** One golden for both residencies: flat views and chunked traces
 *  swept tile by tile must export the same bytes. */
TEST(BitIdentityTest, DefaultCampaignJsonMatchesSeedGolden)
{
    for (sim::StreamExec mode : {sim::StreamExec::Off, sim::StreamExec::On}) {
        SCOPED_TRACE(sim::streamExecName(mode));
        runner::RunnerOptions opts;
        opts.jobs = 1;
        opts.trace_dir = "";
        opts.stream_exec = mode;
        std::vector<sim::ModelSpec> specs = {
            sim::ModelSpec::base(),
            sim::ModelSpec::ds(core::ConsistencyModel::RC, 64),
        };
        runner::Campaign campaign("bitident", opts);
        for (sim::AppId id : sim::kAllApps)
            campaign.add(id, specs, memsys::MemoryConfig{}, true);
        campaign.run();
        ASSERT_TRUE(campaign.ok()) << campaign.failureSummary();

        std::ostringstream js;
        campaign.sink().writeJson(js);
        // Wall-clock fields are the only nondeterminism in the export;
        // normalize them exactly like the golden capture did.
        std::string json = std::regex_replace(
            std::move(js).str(),
            std::regex("\"(wall_ms|gen_ms|load_ms)\": [0-9.]+"),
            "\"$1\": 0");
        EXPECT_EQ(json.size(), kGoldenCampaignJsonBytes);
        EXPECT_EQ(fnv(json), kGoldenCampaignJson);

        // The conditional members must be absent without their models.
        EXPECT_EQ(json.find("contention_cycles"), std::string::npos);
        EXPECT_EQ(json.find("\"dram\""), std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Config keying: names, signatures, cache keys
// ---------------------------------------------------------------------

TEST(ConfigKeyingTest, DefaultFileNameIsUnchangedFromSeed)
{
    std::ostringstream want;
    want << "mp3d_small_h1_m50_msi_b0_o4_v" << runner::kBundleFormatVersion
         << "t" << trace::kTraceFormatVersion << ".dsmb";
    EXPECT_EQ(runner::TraceStore::fileName(
                  sim::AppId::MP3D, memsys::MemoryConfig{}, true),
              want.str());
}

TEST(ConfigKeyingTest, EveryDramFieldChangesTheFileName)
{
    using runner::TraceStore;
    memsys::MemoryConfig base = dramConfig();
    std::string name =
        TraceStore::fileName(sim::AppId::LU, base, true);

    // A DRAM name is the v3 container and never the seed name.
    EXPECT_NE(name,
              TraceStore::fileName(sim::AppId::LU,
                                   memsys::MemoryConfig{}, true));
    EXPECT_NE(name.find("_v3t"), std::string::npos);

    std::vector<memsys::MemoryConfig> variants;
    for (int field = 0; field < 9; ++field) {
        memsys::MemoryConfig m = base;
        switch (field) {
          case 0: m.dram.banks = 8; break;
          case 1: m.dram.sched = memsys::SchedPolicy::RR_PROC; break;
          case 2: m.dram.row_bytes = 4096; break;
          case 3: m.dram.t_rcd = 9; break;
          case 4: m.dram.t_rp = 9; break;
          case 5: m.dram.t_cas = 9; break;
          case 6: m.dram.bus_cycles = 5; break;
          case 7: m.dram.base_latency = 31; break;
          case 8: m.dram.batch_cap = 5; break;
        }
        variants.push_back(m);
    }
    for (size_t i = 0; i < variants.size(); ++i) {
        EXPECT_NE(TraceStore::fileName(sim::AppId::LU, variants[i],
                                       true),
                  name)
            << "dram field " << i << " must key the file name";
    }
}

TEST(ConfigKeyingTest, DramFieldsChangeTheCampaignSignature)
{
    runner::RunnerOptions opts;
    opts.jobs = 1;
    std::vector<sim::ModelSpec> specs = {sim::ModelSpec::base()};

    runner::Campaign plain("sig", opts);
    plain.add(sim::AppId::MP3D, specs, memsys::MemoryConfig{}, true);

    runner::Campaign same("sig", opts);
    same.add(sim::AppId::MP3D, specs, memsys::MemoryConfig{}, true);
    EXPECT_EQ(plain.signature(), same.signature());

    runner::Campaign with_dram("sig", opts);
    with_dram.add(sim::AppId::MP3D, specs, dramConfig(), true);
    EXPECT_NE(plain.signature(), with_dram.signature());

    runner::Campaign other_sched("sig", opts);
    other_sched.add(sim::AppId::MP3D, specs,
                    dramConfig(memsys::SchedPolicy::FR_BATCH), true);
    EXPECT_NE(with_dram.signature(), other_sched.signature());
}

TEST(ConfigKeyingTest, TraceStoreMemoKeysOnDramConfig)
{
    runner::TraceStore store("");
    const sim::ViewBundle &plain =
        store.getView(sim::AppId::MP3D, memsys::MemoryConfig{}, true);
    const sim::ViewBundle &dram =
        store.getView(sim::AppId::MP3D, dramConfig(), true);
    // Distinct entries, not one aliased bundle.
    EXPECT_NE(&plain, &dram);
    EXPECT_TRUE(plain.dram.banks.empty());
    EXPECT_EQ(dram.dram.banks.size(), 4u);

    sim::TraceOrigin origin = sim::TraceOrigin::GENERATED;
    store.getView(sim::AppId::MP3D, dramConfig(), true, &origin);
    EXPECT_EQ(origin, sim::TraceOrigin::MEMORY);
}

// ---------------------------------------------------------------------
// The v3 container
// ---------------------------------------------------------------------

TEST(DramBundleTest, V3RoundTripPreservesDramAccounting)
{
    sim::TraceBundle b =
        sim::generateTrace(sim::AppId::MP3D, dramConfig(), true);
    ASSERT_EQ(b.dram.banks.size(), 4u);
    EXPECT_GT(b.cache0.dram.requests, 0u);
    EXPECT_TRUE(b.verified);

    std::string bytes = serializeBundle(b);
    // Offset 4: the container version, little-endian u32.
    ASSERT_GE(bytes.size(), 8u);
    uint32_t version;
    std::memcpy(&version, bytes.data() + 4, 4);
    EXPECT_EQ(version, runner::kBundleFormatVersionDram);

    std::istringstream is(bytes, std::ios::binary);
    sim::TraceBundle back = runner::loadBundle(is);
    EXPECT_EQ(back.cache0.dram.requests, b.cache0.dram.requests);
    EXPECT_EQ(back.cache0.dram.row_hits, b.cache0.dram.row_hits);
    EXPECT_EQ(back.cache0.dram.queue_cycles, b.cache0.dram.queue_cycles);
    ASSERT_EQ(back.dram.banks.size(), b.dram.banks.size());
    for (size_t i = 0; i < b.dram.banks.size(); ++i) {
        EXPECT_EQ(back.dram.banks[i].requests, b.dram.banks[i].requests);
        EXPECT_EQ(back.dram.banks[i].busy_cycles,
                  b.dram.banks[i].busy_cycles);
        EXPECT_EQ(back.dram.banks[i].row_hits, b.dram.banks[i].row_hits);
    }
    EXPECT_EQ(back.trace.size(), b.trace.size());

    std::istringstream is2(bytes, std::ios::binary);
    sim::ViewBundle vb = runner::loadBundleView(is2);
    EXPECT_EQ(vb.cache0.dram.requests, b.cache0.dram.requests);
    ASSERT_EQ(vb.dram.banks.size(), b.dram.banks.size());
    EXPECT_EQ(vb.view->size(), b.trace.size());
}

TEST(DramBundleTest, GenerationIsDeterministic)
{
    for (memsys::SchedPolicy p :
         {memsys::SchedPolicy::FCFS, memsys::SchedPolicy::FR_FCFS,
          memsys::SchedPolicy::FR_BATCH, memsys::SchedPolicy::RR_PROC}) {
        std::string a = serializeBundle(
            sim::generateTrace(sim::AppId::MP3D, dramConfig(p), true));
        std::string b = serializeBundle(
            sim::generateTrace(sim::AppId::MP3D, dramConfig(p), true));
        EXPECT_EQ(fnv(a), fnv(b)) << memsys::schedPolicyName(p);
    }
}

TEST(DramBundleTest, SchedulersProduceDistinctTimings)
{
    // The policies must actually change the simulation — otherwise
    // the zoo is decoration. Row tracking plus contention on a small
    // bank count gives every policy room to diverge; at minimum the
    // FCFS and FR-FCFS runs must not be byte-identical.
    memsys::MemoryConfig fcfs = dramConfig(memsys::SchedPolicy::FCFS);
    fcfs.dram.banks = 2;
    memsys::MemoryConfig frf = dramConfig(memsys::SchedPolicy::FR_FCFS);
    frf.dram.banks = 2;
    sim::TraceBundle a = sim::generateTrace(sim::AppId::LU, fcfs, true);
    sim::TraceBundle b = sim::generateTrace(sim::AppId::LU, frf, true);
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_NE(a.mp_cycles, b.mp_cycles)
        << "FR-FCFS should change completion time under contention";
}

// ---------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------

TEST(DramGuardTest, ToyBanksAndDramAreMutuallyExclusive)
{
    memsys::MemoryConfig both = dramConfig();
    both.banks = 4;
    EXPECT_THROW(
        memsys::MemorySystem(2, memsys::CacheConfig{}, both),
        std::invalid_argument);
}

// ---------------------------------------------------------------------
// Campaign JSON with the DRAM model on
// ---------------------------------------------------------------------

TEST(DramCampaignTest, JsonExportsDramBlockAndStats)
{
    runner::RunnerOptions opts;
    opts.jobs = 1;
    std::vector<sim::ModelSpec> specs = {
        sim::ModelSpec::base(),
        sim::ModelSpec::ds(core::ConsistencyModel::RC, 64),
    };
    runner::Campaign campaign("dram_json", opts);
    campaign.add(sim::AppId::MP3D, specs, dramConfig(), true);
    campaign.run();
    ASSERT_TRUE(campaign.ok()) << campaign.failureSummary();

    ASSERT_EQ(campaign.sink().traces().size(), 1u);
    const runner::TraceRecord &t = campaign.sink().traces()[0];
    EXPECT_TRUE(t.has_dram);
    EXPECT_FALSE(t.has_contention);
    EXPECT_EQ(t.dram_banks, 4u);
    EXPECT_EQ(t.dram_sched, "frfcfs");
    EXPECT_GT(t.dram_stats.requests, 0u);

    std::ostringstream js;
    campaign.sink().writeJson(js);
    std::string json = std::move(js).str();
    EXPECT_NE(json.find("\"dram\": {\"banks\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"sched\": \"frfcfs\""), std::string::npos);
    EXPECT_NE(json.find("\"row_hits\""), std::string::npos);
}

} // namespace
} // namespace dsmem
