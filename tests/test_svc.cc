/**
 * @file
 * The sharded campaign service: wire protocol framing/corruption,
 * shard-plan determinism and coverage, journal epoch/lease records,
 * and end-to-end coordinator/worker execution — including worker
 * kill -9 chaos — byte-compared against single-process runs — plus
 * the exit-code contract of the built dsmem_svc CLI.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "runner/campaign.h"
#include "runner/journal.h"
#include "svc/catalog.h"
#include "svc/coordinator.h"
#include "svc/protocol.h"
#include "util/byte_io.h"
#include "util/failpoint.h"
#include "util/sysinfo.h"

#ifndef DSMEM_SVC_BIN
#define DSMEM_SVC_BIN ""
#endif

namespace dsmem::svc {
namespace {

namespace fs = std::filesystem;

class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("dsmem_svc_test_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }
    fs::path sub(const std::string &name) const
    {
        return path_ / name;
    }

  private:
    fs::path path_;
};

class SvcTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::disarmAllFailpoints(); }
    void TearDown() override
    {
        util::disarmAllFailpoints();
        ::unsetenv("DSMEM_FAILPOINTS");
    }
};

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Campaign is pinned in place (it owns a mutex), so helpers hand out
 *  options and declare into a caller-constructed instance. */
runner::RunnerOptions
smokeOptions(const std::string &trace_dir,
             const std::string &journal = "", bool resume = false)
{
    runner::RunnerOptions ro;
    ro.jobs = 2;
    ro.trace_dir = trace_dir;
    ro.journal_path = journal;
    ro.resume = resume;
    ro.stable_json = true;
    ro.backoff_base_ms = 1;
    ro.backoff_cap_ms = 4;
    return ro;
}

void
declareSmoke(runner::Campaign &campaign)
{
    std::string err;
    ASSERT_TRUE(declareCampaign("smoke", true, campaign, &err))
        << err;
}

// --- payload codecs -------------------------------------------------

TEST_F(SvcTest, ResultMessageRoundTripsBitExactly)
{
    ResultMsg m;
    m.unit = 3;
    m.spec = 11;
    m.seq = 123456789ull;
    m.ok = 1;
    m.result.breakdown = {1, 2, 3, 4, 5};
    m.result.cycles = 0xdeadbeefcafeull;
    m.result.instructions = 42;
    m.result.branches = 7;
    m.result.mispredicts = 1;
    m.result.read_misses = 99;
    m.sampling.sampled = true;
    m.sampling.windows = 10;
    m.sampling.measured = 1000;
    m.sampling.cpi_mean = 1.2345678901234567; // Needs exact bits.
    m.sampling.ci95 = 0.000123;
    m.wall_ms = 3.14159;
    m.has_trace = 1;
    m.trace_origin = "generated";
    m.trace_instructions = 8775;
    m.trace_wall_ms = 1.5;
    m.gen_ms = 1.25;
    m.load_ms = 0.25;

    ResultMsg d;
    ASSERT_TRUE(decodeResult(encodeResult(m), d));
    EXPECT_TRUE(d.result == m.result);
    EXPECT_TRUE(d.sampling == m.sampling);
    EXPECT_EQ(d.unit, m.unit);
    EXPECT_EQ(d.spec, m.spec);
    EXPECT_EQ(d.seq, m.seq);
    EXPECT_EQ(d.trace_origin, m.trace_origin);
    EXPECT_EQ(d.wall_ms, m.wall_ms); // Bit-cast doubles: exact.
    EXPECT_EQ(d.gen_ms, m.gen_ms);
}

TEST_F(SvcTest, WelcomeRoundTripsDeclarationSet)
{
    WelcomeMsg m;
    m.bench = "bench_x";
    m.trace_dir = "/tmp/cache";
    m.signature = 0x1122334455667788ull;
    m.stream_exec = static_cast<uint8_t>(sim::StreamExec::On);
    m.worker_threads = 3;
    m.plan.period = 1000;
    m.plan.detailed = 100;
    m.plan.warmup = 50;
    m.plan.seed = 7;
    UnitDecl u;
    u.app = 2;
    // Every MemoryConfig/DramConfig field off its default and distinct
    // from the others, so a field the codec drops or swaps shows up.
    u.mem.hit_latency = 2;
    u.mem.miss_latency = 100;
    u.mem.protocol = memsys::Protocol::MESI;
    u.mem.banks = 16;
    u.mem.bank_occupancy = 9;
    u.mem.dram.banks = 4;
    u.mem.dram.sched = memsys::SchedPolicy::FR_BATCH;
    u.mem.dram.row_bytes = 1024;
    u.mem.dram.t_rcd = 11;
    u.mem.dram.t_rp = 12;
    u.mem.dram.t_cas = 13;
    u.mem.dram.bus_cycles = 5;
    u.mem.dram.base_latency = 31;
    u.mem.dram.batch_cap = 6;
    u.small = 1;
    u.specs = {sim::ModelSpec::base(),
               sim::ModelSpec::ds(core::ConsistencyModel::RC, 64)};
    m.units.push_back(u);

    WelcomeMsg d;
    ASSERT_TRUE(decodeWelcome(encodeWelcome(m), d));
    ASSERT_EQ(d.units.size(), 1u);
    EXPECT_EQ(d.units[0].mem.miss_latency, 100u);
    EXPECT_EQ(d.units[0].mem.dram.banks, 4u);
    ASSERT_EQ(d.units[0].specs.size(), 2u);
    EXPECT_EQ(d.units[0].specs[1].label(), u.specs[1].label());
    EXPECT_EQ(d.signature, m.signature);
    EXPECT_EQ(d.plan.period, 1000u);
    EXPECT_TRUE(d.units[0].mem == u.mem);
    EXPECT_TRUE(d.plan == m.plan);
    EXPECT_EQ(d.stream_exec, m.stream_exec);
    EXPECT_EQ(d.worker_threads, 3u);
}

TEST_F(SvcTest, DecodeRejectsTruncatedAndTrailingGarbage)
{
    HelloMsg m{7, 1234, kProtocolVersion};
    std::string p = encodeHello(m);
    HelloMsg d;
    ASSERT_TRUE(decodeHello(p, d));
    // Truncated payload.
    EXPECT_FALSE(decodeHello(p.substr(0, p.size() - 1), d));
    // Trailing garbage.
    EXPECT_FALSE(decodeHello(p + "x", d));
}

TEST_F(SvcTest, AssignCarriesOnePlannedGroup)
{
    UnitDecl u;
    u.specs = {sim::ModelSpec::base(),
               sim::ModelSpec::ds(core::ConsistencyModel::SC, 64),
               sim::ModelSpec::ds(core::ConsistencyModel::PC, 64),
               sim::ModelSpec::ds(core::ConsistencyModel::RC, 16)};
    std::vector<UnitDecl> units(2, u);

    AssignMsg m;
    m.unit = 1;
    m.rows = {3, 1, 2};
    m.seq = 77;
    std::string p = encodeAssign(m);
    AssignMsg d;
    ASSERT_TRUE(decodeAssign(p, units, d));
    EXPECT_EQ(d.unit, 1u);
    EXPECT_EQ(d.rows, m.rows);
    EXPECT_EQ(d.seq, 77u);

    // Truncated anywhere, or trailing garbage.
    for (size_t n = 0; n < p.size(); ++n)
        EXPECT_FALSE(decodeAssign(p.substr(0, n), units, d)) << n;
    EXPECT_FALSE(decodeAssign(p + "x", units, d));

    // A row count the unit cannot have (more rows than specs, or
    // none), an unknown unit, and an out-of-range spec index.
    AssignMsg bad = m;
    bad.rows = {0, 1, 2, 3, 0};
    EXPECT_FALSE(decodeAssign(encodeAssign(bad), units, d));
    bad.rows.clear();
    EXPECT_FALSE(decodeAssign(encodeAssign(bad), units, d));
    bad = m;
    bad.unit = 2;
    EXPECT_FALSE(decodeAssign(encodeAssign(bad), units, d));
    bad = m;
    bad.rows = {4};
    EXPECT_FALSE(decodeAssign(encodeAssign(bad), units, d));
}

TEST_F(SvcTest, HelloOfAnotherProtocolVersionIsRefused)
{
    // v3 added WELCOME's worker_threads: a v2 worker would misread it.
    EXPECT_EQ(kProtocolVersion, 3u);
    HelloMsg d;
    for (uint32_t old : {1u, 2u}) {
        HelloMsg stale{3, 99, old};
        EXPECT_FALSE(decodeHello(encodeHello(stale), d)) << old;
    }
    HelloMsg current{3, 99, kProtocolVersion};
    EXPECT_TRUE(decodeHello(encodeHello(current), d));
}

// --- framing over a real socket -------------------------------------

TEST_F(SvcTest, FrameRoundTripsOverSocketpair)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::string err;
    HelloMsg m{1, 42, kProtocolVersion};
    ASSERT_TRUE(sendFrame(sv[0], "svc.worker.send", MsgType::HELLO,
                          encodeHello(m), &err))
        << err;
    Frame f;
    ASSERT_TRUE(recvFrame(sv[1], "svc.coord.recv", f, &err)) << err;
    EXPECT_EQ(f.type, MsgType::HELLO);
    HelloMsg d;
    ASSERT_TRUE(decodeHello(f.payload, d));
    EXPECT_EQ(d.pid, 42u);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST_F(SvcTest, FrameReaderReassemblesByteByByte)
{
    // Two frames, fed one byte at a time: the incremental parser must
    // produce both, in order, from arbitrarily fragmented reads.
    WireOut raw;
    {
        HeartbeatMsg hb{3, 9};
        std::string p1 = encodeHeartbeat(hb);
        raw.u32(kProtocolMagic);
        raw.u32(static_cast<uint32_t>(MsgType::HEARTBEAT));
        raw.u32(static_cast<uint32_t>(p1.size()));
        raw.buf.append(p1);
        raw.u64(util::fnv1aUpdate(util::kFnvOffset, p1.data(),
                                  p1.size()));
        raw.u32(kProtocolMagic);
        raw.u32(static_cast<uint32_t>(MsgType::SHUTDOWN));
        raw.u32(0);
        raw.u64(util::fnv1aUpdate(util::kFnvOffset, "", 0));
    }
    FrameReader rx;
    std::vector<MsgType> seen;
    std::string err;
    for (char c : raw.buf) {
        rx.feed(&c, 1);
        Frame f;
        int got;
        while ((got = rx.next(f, &err)) == 1)
            seen.push_back(f.type);
        ASSERT_GE(got, 0) << err;
    }
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], MsgType::HEARTBEAT);
    EXPECT_EQ(seen[1], MsgType::SHUTDOWN);
}

TEST_F(SvcTest, CorruptedPayloadFailsChecksum)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    HelloMsg m{1, 42, kProtocolVersion};
    std::string payload = encodeHello(m);
    WireOut w;
    w.u32(kProtocolMagic);
    w.u32(static_cast<uint32_t>(MsgType::HELLO));
    w.u32(static_cast<uint32_t>(payload.size()));
    w.buf.append(payload);
    w.u64(util::fnv1aUpdate(util::kFnvOffset, payload.data(),
                            payload.size()));
    w.buf[13] ^= 0x40; // Flip one payload bit.
    ASSERT_EQ(::send(sv[0], w.buf.data(), w.buf.size(), 0),
              static_cast<ssize_t>(w.buf.size()));
    Frame f;
    std::string err;
    EXPECT_FALSE(recvFrame(sv[1], "svc.coord.recv", f, &err));
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;

    // Bad magic is a protocol error too.
    w.buf[0] = 'X';
    FrameReader rx;
    rx.feed(w.buf.data(), w.buf.size());
    err.clear();
    EXPECT_EQ(rx.next(f, &err), -1);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST_F(SvcTest, SendAndRecvHonorFailpointSites)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    util::armFailpoint(util::FailpointSpec{
        "svc.worker.send", util::FailpointMode::THROW, 0, 1, true});
    std::string err;
    EXPECT_FALSE(sendFrame(sv[0], "svc.worker.send", MsgType::HELLO,
                           "", &err));
    EXPECT_NE(err.find("failpoint"), std::string::npos) << err;
    // Other sites are unaffected.
    EXPECT_TRUE(sendFrame(sv[0], "svc.coord.send", MsgType::HELLO,
                          "", &err))
        << err;
    ::close(sv[0]);
    ::close(sv[1]);
}

// --- shard plan -----------------------------------------------------

TEST_F(SvcTest, ShardPlanCoversEveryCellExactlyOnce)
{
    TempDir tmp("plan");
    for (unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
        runner::Campaign campaign(benchNameFor("smoke"),
                                  smokeOptions(tmp.str()));
        declareSmoke(campaign);
        ASSERT_TRUE(campaign.prepare());
        runner::Campaign::ShardPlan plan =
            campaign.shardPlan(workers, 1);
        ASSERT_EQ(plan.shards.size(), workers);
        std::set<runner::Campaign::CellRef> seen;
        size_t fused = 0;
        for (const auto &shard : plan.shards) {
            for (const auto &g : shard) {
                EXPECT_FALSE(g.group.rows.empty());
                EXPECT_EQ(g.group.fused, g.group.rows.size() > 1);
                fused += g.group.fused;
                for (size_t s : g.group.rows)
                    EXPECT_TRUE(seen.insert({g.unit, s}).second)
                        << "cell dispatched twice";
            }
        }
        size_t pending = 0;
        for (size_t u = 0; u < campaign.size(); ++u)
            for (uint8_t done : campaign.result(u).row_done)
                pending += !done;
        EXPECT_EQ(pending, 8u);
        EXPECT_EQ(seen.size(), pending);
        EXPECT_EQ(plan.cells, pending);
        // Each smoke unit's two RC DS rows are one leased sweep, and
        // its BASE and SS rows one static sweep.
        EXPECT_EQ(fused, 4u) << "workers=" << workers;
        campaign.finish();
    }
}

TEST_F(SvcTest, ShardPlanUsesTheCampaignsGroupPlan)
{
    TempDir tmp("plan3");
    runner::Campaign campaign(benchNameFor("smoke"),
                              smokeOptions(tmp.str()));
    declareSmoke(campaign);
    ASSERT_TRUE(campaign.prepare());
    // The groups planPhase2 gives run() at the pool's total thread
    // count: 2 workers of 2 threads plan as --jobs 4.
    const size_t cap = sim::adaptiveLaneCap(4, 4);
    for (const auto &shard : campaign.shardPlan(2, 2).shards) {
        ASSERT_FALSE(shard.empty());
        std::vector<sim::ExecGroup> want = sim::planPhase2(
            campaign.unitSpecs(shard.front().unit),
            campaign.result(shard.front().unit).row_done, cap);
        ASSERT_EQ(shard.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(shard[i].group.rows, want[i].rows);
            EXPECT_EQ(shard[i].group.fused, want[i].fused);
        }
    }
    campaign.finish();
}

TEST_F(SvcTest, ShardPlanPlansAtThePoolsTotalThreadCount)
{
    // Sixteen RC DS windows of one family: --jobs 2 caps a fused
    // sweep at four lanes, --jobs 4 at two. Two workers of two
    // threads each must plan as --jobs 4, not as --jobs 2.
    TempDir tmp("plan4");
    runner::Campaign campaign("plan4", smokeOptions(tmp.str()));
    std::vector<sim::ModelSpec> specs;
    for (uint32_t w = 4; w <= 64; w += 4)
        specs.push_back(sim::ModelSpec::ds(core::ConsistencyModel::RC, w));
    campaign.add(sim::AppId::LU, specs, memsys::MemoryConfig{}, true);
    ASSERT_TRUE(campaign.prepare());
    ASSERT_NE(sim::adaptiveLaneCap(16, 2), sim::adaptiveLaneCap(16, 4));
    for (unsigned threads : {1u, 2u}) {
        std::vector<sim::ExecGroup> want = sim::planPhase2(
            specs, campaign.result(0).row_done,
            sim::adaptiveLaneCap(16, 2 * threads));
        std::vector<runner::Campaign::GroupRef> got;
        for (const auto &shard : campaign.shardPlan(2, threads).shards)
            got.insert(got.end(), shard.begin(), shard.end());
        ASSERT_EQ(got.size(), want.size()) << "threads=" << threads;
        for (size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(got[i].group.rows, want[i].rows);
    }
    campaign.finish();
}

TEST_F(SvcTest, ShardPlanIsDeterministicAndKeepsTraceAffinity)
{
    TempDir tmp("plan2");
    runner::Campaign a(benchNameFor("smoke"),
                       smokeOptions(tmp.str()));
    runner::Campaign b(benchNameFor("smoke"),
                       smokeOptions(tmp.str()));
    declareSmoke(a);
    declareSmoke(b);
    ASSERT_TRUE(a.prepare());
    ASSERT_TRUE(b.prepare());
    runner::Campaign::ShardPlan pa = a.shardPlan(2, 2);
    runner::Campaign::ShardPlan pb = b.shardPlan(2, 2);
    ASSERT_EQ(pa.shards.size(), pb.shards.size());
    for (size_t k = 0; k < pa.shards.size(); ++k) {
        ASSERT_EQ(pa.shards[k].size(), pb.shards[k].size());
        for (size_t i = 0; i < pa.shards[k].size(); ++i) {
            EXPECT_EQ(pa.shards[k][i].unit, pb.shards[k][i].unit);
            EXPECT_EQ(pa.shards[k][i].group.rows,
                      pb.shards[k][i].group.rows);
        }
    }
    // The two smoke units use distinct traces; sharding keeps a
    // trace's groups together, so no shard should mix units (each
    // shard resolves each of its traces exactly once).
    for (const auto &shard : pa.shards) {
        std::set<size_t> units;
        for (const auto &g : shard)
            units.insert(g.unit);
        EXPECT_LE(units.size(), 1u);
    }
    // One shard holding both traces deals them round-robin, so a
    // two-thread worker's first two leases load both in parallel.
    const std::vector<runner::Campaign::GroupRef> one =
        a.shardPlan(1, 2).shards.at(0);
    ASSERT_EQ(one.size(), 4u);
    for (size_t i = 0; i < one.size(); ++i)
        EXPECT_EQ(one[i].unit, i % 2) << "group " << i;
    a.finish();
    b.finish();
}

// --- journal epoch / lease records ----------------------------------

TEST_F(SvcTest, EpochAndLeaseRecordsSurviveReplay)
{
    TempDir tmp("journal");
    std::string journal = tmp.sub("j.jsonl").string();
    uint64_t signature = 0;
    {
        runner::Campaign campaign(benchNameFor("smoke"),
                                  smokeOptions(tmp.str(), journal));
        declareSmoke(campaign);
        signature = campaign.signature();
        ASSERT_TRUE(campaign.prepare());
        EXPECT_EQ(campaign.resumedEpoch(), 0u);
        campaign.journal().appendEpoch(1, 2);
        campaign.journal().appendLeases({{0, 1, 0, 1}});
        campaign.journal().appendEpoch(2, 4);
        // One ASSIGN of a three-row group: one batch, one fsync.
        campaign.journal().appendLeases(
            {{1, 3, 1, 2}, {1, 2, 1, 2}, {1, 0, 1, 2}});
        campaign.journal().appendLeases({});
        campaign.finish();
    }
    std::vector<runner::JournalRow> rows;
    std::vector<runner::JournalTrace> traces;
    runner::JournalMeta meta;
    std::string err;
    ASSERT_TRUE(runner::CampaignJournal::replay(
        journal, signature, rows, traces, &err, &meta))
        << err;
    EXPECT_EQ(meta.last_epoch, 2u);
    ASSERT_EQ(meta.leases.size(), 4u);
    EXPECT_EQ(meta.leases[0].unit, 0u);
    EXPECT_EQ(meta.leases[0].spec, 1u);
    EXPECT_EQ(meta.leases[0].worker, 0u);
    EXPECT_EQ(meta.leases[0].epoch, 1u);
    const size_t batch_specs[] = {3, 2, 0};
    for (size_t i = 1; i < 4; ++i) {
        EXPECT_EQ(meta.leases[i].unit, 1u);
        EXPECT_EQ(meta.leases[i].spec, batch_specs[i - 1]);
        EXPECT_EQ(meta.leases[i].worker, 1u);
        EXPECT_EQ(meta.leases[i].epoch, 2u);
    }

    // A resumed campaign sees the highest epoch.
    runner::Campaign resumed(
        benchNameFor("smoke"),
        smokeOptions(tmp.str(), journal, true));
    declareSmoke(resumed);
    ASSERT_TRUE(resumed.prepare());
    EXPECT_EQ(resumed.resumedEpoch(), 2u);
    resumed.finish();
}

// --- end-to-end: sharded execution vs the in-process pool -----------

/** Skip when the dsmem_svc binary was not provided by the build. */
bool
haveWorkerBinary()
{
    return DSMEM_SVC_BIN[0] != '\0' && fs::exists(DSMEM_SVC_BIN);
}

TEST_F(SvcTest, CoordinatorMatchesInProcessRunByteForByte)
{
    if (!haveWorkerBinary())
        GTEST_SKIP() << "dsmem_svc binary unavailable";
    TempDir tmp("e2e");

    // Reference: the normal in-process pool.
    std::string ref_json = tmp.sub("ref.json").string();
    {
        runner::Campaign campaign(benchNameFor("smoke"),
                                  smokeOptions(tmp.str()));
        declareSmoke(campaign);
        campaign.run();
        ASSERT_TRUE(campaign.ok());
        ASSERT_TRUE(campaign.writeJson(ref_json));
    }

    for (unsigned workers : {1u, 2u, 4u}) {
        runner::Campaign campaign(
            benchNameFor("smoke"),
            smokeOptions(tmp.str(),
                         tmp.sub("j" + std::to_string(workers) +
                                 ".jsonl")
                             .string()));
        declareSmoke(campaign);
        ServiceOptions so;
        so.workers = workers;
        so.worker_exe = DSMEM_SVC_BIN;
        so.print_workers = false;
        Coordinator coordinator(campaign, so);
        // Each worker takes its share of the host in threads.
        const unsigned threads =
            std::max(1u, util::hostCores() / workers);
        EXPECT_EQ(coordinator.workerThreads(), threads);
        ASSERT_EQ(coordinator.run(), 0);
        EXPECT_TRUE(campaign.ok());
        std::string json =
            tmp.sub("w" + std::to_string(workers) + ".json")
                .string();
        ASSERT_TRUE(campaign.writeJson(json));
        EXPECT_EQ(slurp(json), slurp(ref_json))
            << "workers=" << workers;
        const ServiceStats &st = coordinator.stats();
        EXPECT_EQ(st.results, 8u);
        EXPECT_EQ(st.mismatches, 0u);
        // Rows, not frames: a clean run leases each row once, the
        // fused RC DS pair of each unit rides one ASSIGN, and its
        // BASE and SS static sweep another.
        EXPECT_EQ(st.dispatched, 8u);
        EXPECT_EQ(st.assigns, 4u);
        // No worker died: a TSan build halts a racing worker, so this
        // is what makes the worker pool race-checked there.
        EXPECT_EQ(st.worker_deaths, 0u);
        const std::string stats = coordinator.statsJson();
        EXPECT_NE(stats.find("\"assigns\":4"), std::string::npos);
        EXPECT_NE(stats.find("\"worker_threads\":" +
                             std::to_string(threads) + ","),
                  std::string::npos)
            << stats;
    }
}

TEST_F(SvcTest, StorelessWorkersKeepTheCampaignsResidencyPolicy)
{
    // Regression: with no store directory a worker generated its trace
    // in memory under the default policy, so stream_exec = On kept
    // the in-process trace chunked but the workers' trace flat. The
    // BASE row streams too, so no worker ever flattens the trace.
    if (!haveWorkerBinary())
        GTEST_SKIP() << "dsmem_svc binary unavailable";
    TempDir tmp("residency");
    runner::RunnerOptions ro = smokeOptions("");
    ro.stream_exec = sim::StreamExec::On;
    auto declare = [](runner::Campaign &campaign) {
        campaign.add(sim::AppId::LU,
                     {sim::ModelSpec::base(),
                      sim::ModelSpec::ds(core::ConsistencyModel::RC, 16),
                      sim::ModelSpec::ds(core::ConsistencyModel::RC, 64)},
                     memsys::MemoryConfig{}, true);
    };

    // The reference residency is a bundle this test holds itself: an
    // in-process campaign releases its trace columns when it ends.
    sim::ViewBundle held = sim::generateView(
        sim::AppId::LU, memsys::MemoryConfig{}, true);
    sim::applyResidency(held, sim::StreamExec::On);
    ASSERT_TRUE(held.chunked);
    const size_t in_process_bytes = held.traceBytesResident();
    const double flat_bytes = static_cast<double>(held.chunked->size()) *
        trace::TraceView::bytesPerInstr();

    std::string ref_json = tmp.sub("ref.json").string();
    {
        runner::Campaign campaign("residency", ro);
        declare(campaign);
        campaign.run();
        ASSERT_TRUE(campaign.ok());
        ASSERT_TRUE(campaign.writeJson(ref_json));
    }

    runner::Campaign campaign("residency", ro);
    declare(campaign);
    ServiceOptions so;
    so.workers = 2;
    so.worker_exe = DSMEM_SVC_BIN;
    so.print_workers = false;
    Coordinator coordinator(campaign, so);
    ASSERT_EQ(coordinator.run(), 0);
    EXPECT_TRUE(campaign.ok());
    EXPECT_EQ(coordinator.stats().view_bytes_resident, in_process_bytes);
    EXPECT_LT(static_cast<double>(coordinator.stats().view_bytes_resident),
              flat_bytes / 2);
    std::string json = tmp.sub("svc.json").string();
    ASSERT_TRUE(campaign.writeJson(json));
    EXPECT_EQ(slurp(json), slurp(ref_json));
}

TEST_F(SvcTest, WorkerKillChaosStillCompletesBitIdentically)
{
    if (!haveWorkerBinary())
        GTEST_SKIP() << "dsmem_svc binary unavailable";
    TempDir tmp("chaos");

    std::string ref_json = tmp.sub("ref.json").string();
    {
        runner::Campaign campaign(benchNameFor("smoke"),
                                  smokeOptions(tmp.str()));
        declareSmoke(campaign);
        campaign.run();
        ASSERT_TRUE(campaign.ok());
        ASSERT_TRUE(campaign.writeJson(ref_json));
    }

    // Workers inherit the environment: every spawned worker dies by
    // SIGKILL at its 3rd send boundary, exactly as if an external
    // kill -9 landed there. Heartbeats are pushed out of the way, so
    // the sends are HELLO and then RESULTs: each worker life returns
    // one row and dies while its other leases are in flight. One
    // worker runs hostCores() leases at once, so on a multi-core host
    // the killed worker holds at least two. A respawn budget above
    // the cell count lets workers, not the inline fallback, run every
    // requeued row. This process loaded DSMEM_FAILPOINTS at static
    // init, so the late setenv arms nothing locally.
    ::setenv("DSMEM_FAILPOINTS", "svc.worker.send:kill:3", 1);
    const std::string journal = tmp.sub("jc.jsonl").string();
    runner::Campaign campaign(benchNameFor("smoke"),
                              smokeOptions(tmp.str(), journal));
    declareSmoke(campaign);
    ServiceOptions so;
    so.workers = 1;
    so.respawn_per_slot = 10;
    so.worker_exe = DSMEM_SVC_BIN;
    so.print_workers = false;
    so.heartbeat_ms = 60000;
    so.lease_ms = 60000;
    Coordinator coordinator(campaign, so);
    ASSERT_EQ(coordinator.run(), 0);
    ::unsetenv("DSMEM_FAILPOINTS");
    EXPECT_TRUE(campaign.ok());
    const ServiceStats &st = coordinator.stats();
    // One accepted row per life; the last life completes the run.
    EXPECT_EQ(st.results, 8u);
    EXPECT_EQ(st.worker_deaths, 7u);
    EXPECT_EQ(st.inline_cells, 0u);
    EXPECT_GT(st.redispatched, 0u);
    std::string json = tmp.sub("chaos.json").string();
    ASSERT_TRUE(campaign.writeJson(json));
    EXPECT_EQ(slurp(json), slurp(ref_json));

    // The first dispatch round is one batch of lease lines: the plan's
    // first workerThreads() groups, all leased to the first life.
    runner::Campaign planned(benchNameFor("smoke"), smokeOptions(tmp.str()));
    declareSmoke(planned);
    ASSERT_TRUE(planned.prepare());
    const std::vector<runner::Campaign::GroupRef> shard =
        planned.shardPlan(1, coordinator.workerThreads()).shards.at(0);
    planned.finish();
    const size_t first_leases =
        std::min<size_t>(coordinator.workerThreads(), shard.size());
    if (util::hostCores() >= 2) {
        EXPECT_GE(first_leases, 2u);
    }
    std::vector<runner::Campaign::CellRef> first_round;
    for (size_t i = 0; i < first_leases; ++i)
        for (size_t s : shard[i].group.rows)
            first_round.push_back({shard[i].unit, s});

    std::vector<runner::JournalRow> rows;
    std::vector<runner::JournalTrace> traces;
    runner::JournalMeta meta;
    std::string err;
    ASSERT_TRUE(runner::CampaignJournal::replay(
        journal, campaign.signature(), rows, traces, &err, &meta))
        << err;
    const std::vector<runner::JournalLease> &ls = meta.leases;
    ASSERT_FALSE(rows.empty());
    // Lease lines before the first row line: the first life's batch.
    size_t batch = 0;
    {
        std::istringstream in(slurp(journal));
        std::string line;
        while (std::getline(in, line) &&
               line.find("\"t\":\"row\"") == std::string::npos)
            batch += line.find("\"t\":\"lease\"") != std::string::npos;
    }
    ASSERT_EQ(batch, first_round.size());
    for (size_t k = 0; k < batch; ++k) {
        EXPECT_EQ(ls[k].worker, 0u);
        EXPECT_EQ((runner::Campaign::CellRef{ls[k].unit, ls[k].spec}),
                  first_round[k])
            << "lease " << k;
    }
    // The first row line is the first life's one result; every other
    // row of its leases was requeued and leased again.
    const runner::Campaign::CellRef committed{rows.front().unit,
                                              rows.front().spec};
    for (const runner::Campaign::CellRef &cell : first_round) {
        if (cell == committed)
            continue;
        bool again = false;
        for (size_t later = batch; later < ls.size(); ++later)
            again = again || (ls[later].unit == cell.unit &&
                              ls[later].spec == cell.spec);
        EXPECT_TRUE(again) << "cell " << cell.unit << "/" << cell.spec
                           << " was never redispatched";
    }
}

TEST_F(SvcTest, SpawnedWorkersInheritNoCoordinatorDescriptors)
{
    // A worker that inherited the listen socket could connect to it
    // after the coordinator died and wait for a WELCOME forever; one
    // that inherited the journal or a sibling's connection holds them
    // open. The probe records its descriptors above stdio and exits,
    // so the pool dies and the run completes inline.
    TempDir tmp("cloexec");
    const std::string probe = tmp.sub("probe.sh").string();
    {
        std::ofstream out(probe);
        out << "#!/bin/sh\n"
               "for f in /proc/$$/fd/*; do\n"
               "  n=${f##*/}\n"
               "  [ \"$n\" -gt 2 ] && readlink \"$f\"\n"
               "done > \"$0.fds\"\n"
               "exit 1\n";
    }
    fs::permissions(probe, fs::perms::owner_all);
    const std::string journal = tmp.sub("j.jsonl").string();
    runner::Campaign campaign(benchNameFor("smoke"),
                              smokeOptions(tmp.str(), journal));
    declareSmoke(campaign);
    ServiceOptions so;
    so.workers = 1;
    so.respawn_per_slot = 0;
    so.worker_exe = probe;
    so.print_workers = false;
    Coordinator coordinator(campaign, so);
    ASSERT_EQ(coordinator.run(), 0);
    EXPECT_EQ(coordinator.stats().inline_cells, 8u);
    ASSERT_TRUE(fs::exists(probe + ".fds"));
    const std::string fds = slurp(probe + ".fds");
    EXPECT_EQ(fds.find("socket:"), std::string::npos) << fds;
    EXPECT_EQ(fds.find(journal), std::string::npos) << fds;
}

TEST_F(SvcTest, DeadPoolDegradesToInlineExecution)
{
    TempDir tmp("inline");
    // svc.spawn throws for every fork: no worker ever starts, the
    // coordinator must degrade to in-process execution and still
    // satisfy the exit-code contract.
    util::armFailpoint(util::FailpointSpec{
        "svc.spawn", util::FailpointMode::THROW, 0, 1, false});
    runner::Campaign campaign(benchNameFor("smoke"),
                              smokeOptions(tmp.str()));
    declareSmoke(campaign);
    ServiceOptions so;
    so.workers = 2;
    so.print_workers = false;
    Coordinator coordinator(campaign, so);
    ASSERT_EQ(coordinator.run(), 0);
    EXPECT_TRUE(campaign.ok());
    EXPECT_EQ(coordinator.stats().inline_cells, 8u);
    EXPECT_EQ(coordinator.stats().results, 0u);
}

TEST_F(SvcTest, DuplicateRemoteRowIsAbsorbedMismatchIsNot)
{
    TempDir tmp("dup");
    runner::Campaign campaign(benchNameFor("smoke"),
                              smokeOptions(tmp.str()));
    declareSmoke(campaign);
    ASSERT_TRUE(campaign.prepare());
    campaign.runGroupInline({0, sim::ExecGroup{{0}, false, 1}});
    ASSERT_EQ(campaign.result(0).row_done[0], 1);
    core::RunResult r = campaign.result(0).rows[0].result;
    sim::SampleSummary s = campaign.result(0).row_sampling[0];

    // The same bits again: at-least-once redelivery, harmless.
    EXPECT_EQ(campaign.acceptRemoteRow(0, 0, r, s, 1.0),
              runner::Campaign::Accept::DUPLICATE);
    // Different bits: two workers disagreeing on a deterministic
    // cell — poison.
    core::RunResult bad = r;
    bad.cycles += 1;
    EXPECT_EQ(campaign.acceptRemoteRow(0, 0, bad, s, 1.0),
              runner::Campaign::Accept::MISMATCH);
    EXPECT_EQ(campaign.acceptRemoteRow(99, 0, r, s, 1.0),
              runner::Campaign::Accept::BAD_REF);
    // First result wins: the mismatch never overwrote the row.
    EXPECT_TRUE(campaign.result(0).rows[0].result == r);
    campaign.finish();
    EXPECT_EQ(campaign.result(0).row_done[0], 1);
    EXPECT_EQ(campaign.result(0).row_done[1], 0); // Never ran.
}

// --- catalog --------------------------------------------------------

TEST_F(SvcTest, CatalogDeclaresKnownCampaigns)
{
    EXPECT_EQ(benchNameFor("figure3"), "bench_figure3");
    EXPECT_EQ(benchNameFor("smoke"), "svc_smoke");
    EXPECT_EQ(benchNameFor("nope"), "");
    runner::RunnerOptions ro;
    ro.trace_dir = "";
    runner::Campaign campaign("bench_figure3", ro);
    std::string err;
    ASSERT_TRUE(declareCampaign("figure3", true, campaign, &err))
        << err;
    EXPECT_EQ(campaign.size(), 5u); // One unit per application.
    runner::Campaign bad("x", ro);
    std::string err2;
    EXPECT_FALSE(declareCampaign("nope", true, bad, &err2));
    EXPECT_NE(err2.find("unknown campaign"), std::string::npos);
}

// --- the dsmem_svc CLI contract -------------------------------------

struct CliOutcome {
    int exit_code = -1; ///< -1: did not exit normally.
    std::string out;
};

/** Run the built dsmem_svc with @p args via /bin/sh, capturing
 *  stdout (stderr is discarded). The timeout turns a command that
 *  blocks (a listening server, say) into a failure, not a hang. */
CliOutcome
runCli(const TempDir &tmp, const std::string &args)
{
    fs::path out = tmp.sub("cli_out");
    std::string cmd = "timeout 30 " + std::string(DSMEM_SVC_BIN) + " " +
                      args + " >" + out.string() + " 2>/dev/null";
    int status = std::system(cmd.c_str());
    CliOutcome r;
    if (status != -1 && WIFEXITED(status))
        r.exit_code = WEXITSTATUS(status);
    r.out = slurp(out);
    return r;
}

TEST_F(SvcTest, CliRejectsServerModeVerbsAsUnknownCommands)
{
    if (!haveWorkerBinary())
        GTEST_SKIP() << "dsmem_svc binary unavailable";
    TempDir tmp("cli_verbs");
    std::string sock = tmp.sub("s.sock").string();
    EXPECT_EQ(runCli(tmp, "serve --socket " + sock).exit_code, 2);
    EXPECT_EQ(runCli(tmp, "submit --socket " + sock +
                              " --campaign smoke")
                  .exit_code,
              2);
    EXPECT_EQ(runCli(tmp, "stop --socket " + sock).exit_code, 2);
}

TEST_F(SvcTest, CliRejectsOutOfRangeWorkerCounts)
{
    if (!haveWorkerBinary())
        GTEST_SKIP() << "dsmem_svc binary unavailable";
    TempDir tmp("cli_workers");
    // A sign wraps under strtoul, and a value above UINT_MAX
    // truncates when cast to unsigned: both must be usage errors.
    for (const char *w : {"-1", "0", "4294967297", "1025", "+2", "' 2'",
                          "2x"}) {
        EXPECT_EQ(runCli(tmp, "run --campaign smoke --quiet "
                              "--trace-dir " +
                                  tmp.str() + " --workers " + w)
                      .exit_code,
                  2)
            << "--workers " << w;
    }
}

TEST_F(SvcTest, CliUnwritableStatsJsonExitsOne)
{
    if (!haveWorkerBinary())
        GTEST_SKIP() << "dsmem_svc binary unavailable";
    TempDir tmp("cli_stats");
    std::string stats = tmp.sub("no_such_dir/stats.json").string();
    EXPECT_EQ(runCli(tmp, "run --campaign smoke --quiet --workers 1 "
                          "--trace-dir " +
                              tmp.str() + " --stats-json " + stats)
                  .exit_code,
              1);
}

TEST_F(SvcTest, CliListPrintsTheCatalog)
{
    if (!haveWorkerBinary())
        GTEST_SKIP() << "dsmem_svc binary unavailable";
    TempDir tmp("cli_list");
    CliOutcome r = runCli(tmp, "list");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.out.find("figure3"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("smoke"), std::string::npos) << r.out;
}

} // namespace
} // namespace dsmem::svc
