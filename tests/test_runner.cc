/**
 * @file
 * Tests for the parallel experiment runner (src/runner): worker-pool
 * determinism (bit-identical results and tables for any --jobs),
 * the persistent TraceStore (round-trip, corruption/truncation/
 * version rejection and regeneration), the full-MemoryConfig
 * TraceStore memo key (MSI-then-MESI regression), the structured result
 * export, and the affinity-aware host core count that sizes the pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include "runner/campaign.h"
#include "runner/result_sink.h"
#include "runner/runner.h"
#include "runner/trace_store.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/sampling.h"
#include "sim/trace_bundle.h"
#include "trace/chunked_view.h"
#include "trace/trace_view.h"
#include "util/sysinfo.h"

namespace dsmem::runner {
namespace {

namespace fs = std::filesystem;

/** A fresh per-test cache directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("dsmem_runner_test_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        fs::remove_all(path_);
    }
    ~TempDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }
    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

/** True when @p v decodes to exactly the records of @p t. */
bool
sameRecords(const trace::TraceView &v, const trace::Trace &t)
{
    if (v.size() != t.size())
        return false;
    for (size_t i = 0; i < t.size(); ++i)
        if (!(v.materialize(i) == t[i]))
            return false;
    return true;
}

std::vector<sim::ModelSpec>
smallSpecList()
{
    std::vector<sim::ModelSpec> specs;
    specs.push_back(sim::ModelSpec::base());
    specs.push_back(sim::ModelSpec::ssbr(core::ConsistencyModel::SC));
    specs.push_back(sim::ModelSpec::ss(core::ConsistencyModel::RC));
    specs.push_back(
        sim::ModelSpec::ds(core::ConsistencyModel::RC, 16));
    specs.push_back(
        sim::ModelSpec::ds(core::ConsistencyModel::RC, 64));
    return specs;
}

RunnerOptions
noStoreOptions(unsigned jobs)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.trace_dir.clear();
    return opts;
}

// --- Runner pool ---------------------------------------------------

TEST(RunnerPool, DrainsNestedSubmissions)
{
    Runner runner(8);
    std::atomic<int> count{0};
    for (int i = 0; i < 16; ++i) {
        runner.submit([&runner, &count] {
            ++count;
            // Dependents enqueued from inside a job, as phase-1 trace
            // jobs enqueue their phase-2 timing runs.
            runner.submit([&count] { ++count; });
        });
    }
    runner.wait();
    EXPECT_EQ(count.load(), 32);
}

TEST(RunnerPool, WaitWithoutJobsReturns)
{
    Runner runner(2);
    runner.wait();
    runner.submit([] {});
    runner.wait();
}

#if defined(__linux__)
/**
 * A process pinned to one CPU sizes itself to one: hostCores() counts
 * the affinity mask (hardware_concurrency would report every CPU of
 * the machine), so the runner defaults to one worker. The pin happens
 * in a forked child so it cannot leak into other tests.
 */
TEST(HostCores, CountsTheAffinityMask)
{
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            _exit(10);
        int cpu = 0;
        while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &set))
            ++cpu;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        if (sched_setaffinity(0, sizeof(set), &set) != 0)
            _exit(11);
        if (util::hostCores() != 1)
            _exit(12);
        if (RunnerOptions{}.resolvedJobs() != 1)
            _exit(14);
        _exit(0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "10/11: affinity syscalls failed; 12: hostCores; "
           "14: resolvedJobs";
}
#endif

// --- Parallel == serial -------------------------------------------

TEST(CampaignTest, ParallelResultsBitIdenticalToSerial)
{
    const std::vector<sim::AppId> apps = {sim::AppId::MP3D,
                                          sim::AppId::LU};
    std::vector<sim::ModelSpec> specs = smallSpecList();

    Campaign serial("serial", noStoreOptions(1));
    for (sim::AppId id : apps)
        serial.add(id, specs, memsys::MemoryConfig{}, true);
    serial.run();

    for (unsigned jobs : {2u, 4u, 8u}) {
        Campaign parallel("parallel", noStoreOptions(jobs));
        for (sim::AppId id : apps)
            parallel.add(id, specs, memsys::MemoryConfig{}, true);
        parallel.run();

        ASSERT_EQ(parallel.size(), serial.size());
        for (size_t u = 0; u < serial.size(); ++u) {
            const UnitResult &a = serial.result(u);
            const UnitResult &b = parallel.result(u);
            ASSERT_EQ(a.rows.size(), b.rows.size());
            for (size_t s = 0; s < a.rows.size(); ++s) {
                EXPECT_EQ(a.rows[s].label, b.rows[s].label);
                EXPECT_EQ(a.rows[s].result, b.rows[s].result)
                    << "unit " << u << " spec " << a.rows[s].label
                    << " jobs " << jobs;
            }
            // The formatted paper tables must match byte for byte.
            EXPECT_EQ(
                sim::formatBreakdownTable(
                    "app", a.rows, a.rows.front().result.cycles),
                sim::formatBreakdownTable(
                    "app", b.rows, b.rows.front().result.cycles));
        }
    }
}

TEST(CampaignTest, SharedTraceGeneratedOnceAcrossUnits)
{
    // Two units over the same (app, config, size) must share one
    // bundle; a distinct config must not.
    Campaign campaign("dedup", noStoreOptions(4));
    std::vector<sim::ModelSpec> specs = {sim::ModelSpec::base()};
    memsys::MemoryConfig mem100;
    mem100.miss_latency = 100;
    campaign.add(sim::AppId::MP3D, specs, memsys::MemoryConfig{}, true);
    campaign.add(sim::AppId::MP3D, specs, memsys::MemoryConfig{}, true);
    campaign.add(sim::AppId::MP3D, specs, mem100, true);
    campaign.run();

    EXPECT_EQ(campaign.result(0).bundle, campaign.result(1).bundle);
    EXPECT_NE(campaign.result(0).bundle, campaign.result(2).bundle);
    EXPECT_EQ(campaign.sink().traces().size(), 2u);
    EXPECT_EQ(campaign.sink().runs().size(), 3u);
}

// --- Releasing a trace's columns after its last group ---------------

/** What a released bundle keeps: its stats, not its columns. */
void
expectReleased(const UnitResult &res, const sim::ViewBundle &ref)
{
    ASSERT_NE(res.bundle, nullptr);
    EXPECT_FALSE(res.bundle->view);
    EXPECT_FALSE(res.bundle->chunked);
    EXPECT_EQ(res.bundle->traceBytesResident(), 0u);
    EXPECT_EQ(res.bundle->stats.instructions, ref.stats.instructions);
    EXPECT_EQ(res.bundle->stats.read_misses, ref.stats.read_misses);
    EXPECT_EQ(res.bundle->cache0.reads, ref.cache0.reads);
    EXPECT_EQ(res.bundle->mp_cycles, ref.mp_cycles);
}

TEST(CampaignRelease, StoreHoldsNoColumnsAfterRun)
{
    const std::vector<sim::ModelSpec> specs = smallSpecList();
    const std::vector<sim::AppId> apps = {
        sim::AppId::MP3D, sim::AppId::MP3D, sim::AppId::LU};
    std::map<sim::AppId, sim::ViewBundle> refs;
    for (sim::AppId id : apps)
        if (!refs.count(id))
            refs.emplace(id, sim::generateView(id, {}, true));

    for (sim::StreamExec mode : {sim::StreamExec::Off, sim::StreamExec::On}) {
        for (unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(std::string(sim::streamExecName(mode)) +
                         " jobs " + std::to_string(jobs));
            TempDir dir("release_" + std::to_string(jobs) +
                        sim::streamExecName(mode));
            RunnerOptions opts = noStoreOptions(jobs);
            opts.trace_dir = dir.str();
            opts.stream_exec = mode;
            Campaign campaign("release", opts);
            for (sim::AppId id : apps)
                campaign.add(id, specs, memsys::MemoryConfig{}, true);
            campaign.run();
            ASSERT_TRUE(campaign.ok()) << campaign.failureSummary();
            for (size_t u = 0; u < apps.size(); ++u) {
                const sim::ViewBundle &ref = refs.at(apps[u]);
                expectReleased(campaign.result(u), ref);
                for (size_t s = 0; s < specs.size(); ++s)
                    EXPECT_EQ(campaign.result(u).rows[s].result,
                              sim::runModel(*ref.flatView(), specs[s]))
                        << "unit " << u << " " << specs[s].label();
            }
            EXPECT_EQ(campaign.result(0).bundle, campaign.result(1).bundle);
            ASSERT_EQ(campaign.sink().traces().size(), 2u);
            EXPECT_EQ(campaign.sink().traces()[0].instructions,
                      refs.at(sim::AppId::MP3D).stats.instructions);
        }
    }
}

/**
 * Sampled rows need the flat view (live points, window jumps). A
 * chunked trace flattens for them, and the release after the last
 * group must not disturb a group still running on it.
 */
TEST(CampaignRelease, SampledCampaignMatchesAfterRelease)
{
    RunnerOptions opts = noStoreOptions(4);
    opts.stream_exec = sim::StreamExec::On;
    opts.sampling.period = 4000;
    opts.sampling.detailed = 400;
    opts.sampling.warmup = 1200;
    std::vector<sim::ModelSpec> specs;
    for (uint32_t w : {16u, 32u, 64u, 128u, 256u})
        specs.push_back(sim::ModelSpec::ds(core::ConsistencyModel::RC, w));
    specs.push_back(sim::ModelSpec::base());

    Campaign campaign("release_sampled", opts);
    campaign.add(sim::AppId::LU, specs, memsys::MemoryConfig{}, true);
    campaign.run();
    ASSERT_TRUE(campaign.ok()) << campaign.failureSummary();

    const sim::ViewBundle ref =
        sim::generateView(sim::AppId::LU, {}, true);
    expectReleased(campaign.result(0), ref);
    const sim::LivePointSet points =
        sim::computeLivePoints(*ref.flatView(), opts.sampling);
    core::SimContext ctx;
    for (size_t s = 0; s < specs.size(); ++s) {
        SCOPED_TRACE(specs[s].label());
        if (specs[s].kind != sim::ModelSpec::Kind::DS) {
            EXPECT_EQ(campaign.result(0).rows[s].result,
                      sim::runModel(*ref.flatView(), specs[s]));
            continue;
        }
        const sim::SampledCell cell = sim::runModelSampled(
            *ref.flatView(), specs[s], opts.sampling, points, ctx);
        EXPECT_EQ(campaign.result(0).rows[s].result, cell.result);
        EXPECT_EQ(campaign.result(0).row_sampling[s], cell.sampling);
    }
}

/**
 * Compressed is the residency: an unsampled campaign under the
 * default policy never flattens a trace, generated or loaded from
 * disk, and a sampled one flattens only the traces it samples.
 */
TEST(CampaignRelease, OnlySampledTracesAreEverFlattened)
{
    const std::vector<sim::ModelSpec> specs = smallSpecList();
    const std::vector<sim::ModelSpec> statics = {
        sim::ModelSpec::base(),
        sim::ModelSpec::ss(core::ConsistencyModel::RC)};
    TempDir dir("flatten");
    for (sim::TraceOrigin origin :
         {sim::TraceOrigin::GENERATED, sim::TraceOrigin::DISK}) {
        SCOPED_TRACE(std::string(sim::traceOriginName(origin)));
        RunnerOptions opts = noStoreOptions(4);
        opts.trace_dir = dir.str();
        ASSERT_EQ(opts.stream_exec, sim::StreamExec::Auto);
        Campaign campaign("unsampled", opts);
        campaign.add(sim::AppId::MP3D, specs, memsys::MemoryConfig{}, true);
        campaign.add(sim::AppId::LU, specs, memsys::MemoryConfig{}, true);
        campaign.run();
        ASSERT_TRUE(campaign.ok()) << campaign.failureSummary();
        EXPECT_EQ(campaign.result(0).origin, origin);
        EXPECT_EQ(campaign.result(1).origin, origin);
        EXPECT_EQ(campaign.storeStats().flattened, 0u);
        // Generated or loaded, each trace stayed in its bundle file.
        EXPECT_EQ(campaign.storeStats().in_memory_views, 0u);
        EXPECT_GT(campaign.storeStats().chunk_fetches, 0u);
    }
    {
        // The counter sees flat residency: Off holds both traces flat.
        RunnerOptions opts = noStoreOptions(4);
        opts.trace_dir = dir.str();
        opts.stream_exec = sim::StreamExec::Off;
        Campaign campaign("flat", opts);
        campaign.add(sim::AppId::MP3D, specs, memsys::MemoryConfig{}, true);
        campaign.add(sim::AppId::LU, specs, memsys::MemoryConfig{}, true);
        campaign.run();
        ASSERT_TRUE(campaign.ok()) << campaign.failureSummary();
        EXPECT_EQ(campaign.storeStats().flattened, 2u);
    }

    // LU's DS rows are sampled; MP3D declares only static rows, which
    // always run exactly, so its trace is never sampled.
    RunnerOptions opts = noStoreOptions(4);
    opts.trace_dir = dir.str();
    opts.sampling.period = 4000;
    opts.sampling.detailed = 400;
    opts.sampling.warmup = 1200;
    Campaign campaign("sampled", opts);
    campaign.add(sim::AppId::MP3D, statics, memsys::MemoryConfig{}, true);
    campaign.add(sim::AppId::LU, specs, memsys::MemoryConfig{}, true);
    campaign.run();
    ASSERT_TRUE(campaign.ok()) << campaign.failureSummary();
    EXPECT_EQ(campaign.storeStats().flattened, 1u);
    const sim::ViewBundle mp3d =
        sim::generateView(sim::AppId::MP3D, {}, true);
    for (size_t s = 0; s < statics.size(); ++s)
        EXPECT_EQ(campaign.result(0).rows[s].result,
                  sim::runModel(*mp3d.flatView(), statics[s]))
            << statics[s].label();
}

/**
 * A warm campaign holds no trace in memory: every trace is a
 * file-backed view of its bundle, and what the store fetched is
 * exactly one pass per group — every section for a DS group, all
 * but the addresses for a static one.
 */
TEST(CampaignRelease, WarmCampaignFetchesEachGroupsPassFromItsFile)
{
    TempDir dir("warm_fetch");
    const std::vector<sim::ModelSpec> specs = sim::figure3Columns();
    const std::vector<sim::AppId> apps = {sim::AppId::MP3D, sim::AppId::LU};
    RunnerOptions opts = noStoreOptions(4);
    opts.trace_dir = dir.str();
    auto declare = [&](Campaign &campaign) {
        for (sim::AppId id : apps)
            campaign.add(id, specs, memsys::MemoryConfig{}, true);
    };
    {
        Campaign cold("cold", opts);
        declare(cold);
        cold.run();
        ASSERT_TRUE(cold.ok()) << cold.failureSummary();
        EXPECT_EQ(cold.storeStats().in_memory_views, 0u);
    }
    Campaign warm("warm", opts);
    declare(warm);
    warm.run();
    ASSERT_TRUE(warm.ok()) << warm.failureSummary();

    // What one pass of each group reads, per the plan run() used.
    size_t pending_ds = 0;
    for (const sim::ModelSpec &spec : specs)
        pending_ds += spec.kind == sim::ModelSpec::Kind::DS;
    const size_t cap = sim::adaptiveLaneCap(pending_ds * apps.size(), 4);
    const std::vector<uint8_t> done(specs.size(), 0);
    TraceStore probe(dir.str(), sim::StreamExec::On);
    uint64_t bytes = 0, fetches = 0;
    for (size_t u = 0; u < apps.size(); ++u) {
        EXPECT_EQ(warm.result(u).origin, sim::TraceOrigin::DISK);
        const sim::ViewBundle &vb =
            probe.getView(apps[u], memsys::MemoryConfig{}, true);
        ASSERT_TRUE(vb.chunked && vb.chunked->fileBacked());
        for (const sim::ExecGroup &g : sim::planPhase2(specs, done, cap)) {
            const bool ds =
                specs[g.rows.front()].kind == sim::ModelSpec::Kind::DS;
            bytes += vb.chunked->passBytes(ds ? trace::TileColumns::kAll
                                              : trace::TileColumns::kStatic);
            fetches += vb.chunked->chunkCount();
        }
    }
    const StoreStats st = warm.storeStats();
    EXPECT_EQ(st.in_memory_views, 0u);
    EXPECT_EQ(st.flattened, 0u);
    EXPECT_EQ(st.fetch_verify_failures, 0u);
    EXPECT_EQ(st.fetch_bytes, bytes);
    EXPECT_EQ(st.chunk_fetches, fetches);

    // The counters reach the --json export, not the stable one.
    std::ostringstream js;
    warm.sink().writeJson(js);
    EXPECT_NE(js.str().find("\"store\": {\"chunk_fetches\": " +
                            std::to_string(fetches)),
              std::string::npos);
}

TEST(TraceStoreTest, GetViewAfterReleaseReloads)
{
    TempDir dir("reload");
    for (const std::string &path : {dir.str(), std::string()}) {
        SCOPED_TRACE(path.empty() ? "memory-only" : "on disk");
        TraceStore store(path);
        sim::TraceOrigin origin;
        const sim::ViewBundle &first = store.getView(
            sim::AppId::MP3D, memsys::MemoryConfig{}, true, &origin);
        EXPECT_EQ(origin, sim::TraceOrigin::GENERATED);
        const sim::ViewBundle held = first; // Shares the columns.
        ASSERT_TRUE(held.view);

        store.release(sim::AppId::MP3D, memsys::MemoryConfig{}, true);
        EXPECT_FALSE(first.view);
        EXPECT_FALSE(first.chunked);
        EXPECT_EQ(first.stats.instructions, held.stats.instructions);
        ASSERT_TRUE(held.view); // A copy keeps its columns.

        const sim::ViewBundle &again = store.getView(
            sim::AppId::MP3D, memsys::MemoryConfig{}, true, &origin);
        EXPECT_EQ(&again, &first); // Same bundle, columns restored.
        EXPECT_EQ(origin, path.empty() ? sim::TraceOrigin::GENERATED
                                       : sim::TraceOrigin::DISK);
        ASSERT_TRUE(again.view);
        EXPECT_NE(again.view.get(), held.view.get());
        ASSERT_EQ(again.view->size(), held.view->size());
        for (size_t i = 0; i < held.view->size(); ++i)
            ASSERT_EQ(again.view->materialize(i),
                      held.view->materialize(i))
                << "record " << i;
        store.getView(sim::AppId::MP3D, memsys::MemoryConfig{}, true,
                      &origin);
        EXPECT_EQ(origin, sim::TraceOrigin::MEMORY);
    }
}

// --- TraceStore memo: full-config key (regression) ----------------

TEST(TraceStoreKey, MsiThenMesiReturnDifferentBundles)
{
    // Regression: the memo key used to be (app, miss_latency, small),
    // so requesting MESI after an MSI run silently returned the MSI
    // bundle.
    TraceStore store("");
    memsys::MemoryConfig msi;
    memsys::MemoryConfig mesi;
    mesi.protocol = memsys::Protocol::MESI;

    const sim::ViewBundle &b_msi =
        store.getView(sim::AppId::OCEAN, msi, true);
    const sim::ViewBundle &b_mesi =
        store.getView(sim::AppId::OCEAN, mesi, true);
    EXPECT_NE(&b_msi, &b_mesi);
    // MESI silently upgrades private read-then-write lines, so OCEAN
    // must lose write misses relative to MSI.
    EXPECT_LT(b_mesi.stats.write_misses, b_msi.stats.write_misses);

    // Memoization per protocol still holds.
    EXPECT_EQ(&store.getView(sim::AppId::OCEAN, msi, true), &b_msi);
    EXPECT_EQ(&store.getView(sim::AppId::OCEAN, mesi, true), &b_mesi);
}

TEST(TraceStoreKey, DistinguishesHitLatencyAndBanks)
{
    TraceStore store("");
    memsys::MemoryConfig base;
    memsys::MemoryConfig banked;
    banked.banks = 16;
    banked.bank_occupancy = 8;

    const sim::ViewBundle &plain =
        store.getView(sim::AppId::MP3D, base, true);
    const sim::ViewBundle &contended =
        store.getView(sim::AppId::MP3D, banked, true);
    EXPECT_NE(&plain, &contended);
}

TEST(TraceStoreKey, ReportsOrigin)
{
    TraceStore store("");
    sim::TraceOrigin origin;
    store.getView(sim::AppId::MP3D, memsys::MemoryConfig{}, true,
                  &origin);
    EXPECT_EQ(origin, sim::TraceOrigin::GENERATED);
    store.getView(sim::AppId::MP3D, memsys::MemoryConfig{}, true,
                  &origin);
    EXPECT_EQ(origin, sim::TraceOrigin::MEMORY);
}

// --- TraceStore ----------------------------------------------------

TEST(TraceStoreTest, RoundTripsRealBundle)
{
    TempDir dir("roundtrip");
    TraceStore store(dir.str());
    memsys::MemoryConfig mem;
    sim::TraceBundle bundle =
        sim::generateTrace(sim::AppId::MP3D, mem, true);

    store.store(sim::AppId::MP3D, mem, true, bundle);
    std::optional<sim::ViewBundle> loaded =
        store.loadView(sim::AppId::MP3D, mem, true);
    ASSERT_TRUE(loaded.has_value());

    EXPECT_TRUE(sameRecords(*loaded->flatView(), bundle.trace));
    EXPECT_EQ(loaded->mp_cycles, bundle.mp_cycles);
    EXPECT_EQ(loaded->verified, bundle.verified);
    EXPECT_EQ(loaded->stats.instructions, bundle.stats.instructions);
    EXPECT_EQ(loaded->stats.read_misses, bundle.stats.read_misses);
    EXPECT_EQ(loaded->stats.barriers, bundle.stats.barriers);
    EXPECT_EQ(loaded->cache0.writebacks, bundle.cache0.writebacks);
    EXPECT_EQ(loaded->thread0.sync_wait_cycles,
              bundle.thread0.sync_wait_cycles);

    // And the loaded trace times identically.
    core::RunResult a = sim::runModel(
        bundle.trace, sim::ModelSpec::ds(core::ConsistencyModel::RC,
                                         64));
    core::RunResult b = sim::runModel(
        *loaded->flatView(),
        sim::ModelSpec::ds(core::ConsistencyModel::RC, 64));
    EXPECT_EQ(a, b);
}

TEST(TraceStoreTest, DisabledStoreMissesAndStoresNothing)
{
    TraceStore store("");
    EXPECT_FALSE(store.enabled());
    memsys::MemoryConfig mem;
    EXPECT_FALSE(
        store.loadView(sim::AppId::MP3D, mem, true).has_value());
    sim::TraceBundle bundle =
        sim::generateTrace(sim::AppId::MP3D, mem, true);
    store.store(sim::AppId::MP3D, mem, true, bundle); // No crash.
}

TEST(TraceStoreTest, DistinctConfigsUseDistinctFiles)
{
    memsys::MemoryConfig msi;
    memsys::MemoryConfig mesi;
    mesi.protocol = memsys::Protocol::MESI;
    memsys::MemoryConfig hit2;
    hit2.hit_latency = 2;

    std::string a = TraceStore::fileName(sim::AppId::LU, msi, true);
    EXPECT_NE(a, TraceStore::fileName(sim::AppId::LU, mesi, true));
    EXPECT_NE(a, TraceStore::fileName(sim::AppId::LU, hit2, true));
    EXPECT_NE(a, TraceStore::fileName(sim::AppId::LU, msi, false));
    EXPECT_NE(a, TraceStore::fileName(sim::AppId::MP3D, msi, true));
}

class TraceStoreCorruptionTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = std::make_unique<TempDir>("corruption");
        store_ = std::make_unique<TraceStore>(dir_->str());
        bundle_ = sim::generateTrace(sim::AppId::MP3D, mem_, true);
        store_->store(sim::AppId::MP3D, mem_, true, bundle_);
        path_ = store_->pathFor(sim::AppId::MP3D, mem_, true);
        ASSERT_TRUE(fs::exists(path_));
    }

    /** The stored file must be rejected AND deleted. */
    void expectRejected()
    {
        EXPECT_FALSE(
            store_->loadView(sim::AppId::MP3D, mem_, true).has_value());
        EXPECT_FALSE(fs::exists(path_));

        // Through getView, a bad file regenerates silently.
        sim::TraceOrigin origin;
        const sim::ViewBundle &fresh =
            store_->getView(sim::AppId::MP3D, mem_, true, &origin);
        EXPECT_EQ(origin, sim::TraceOrigin::GENERATED);
        EXPECT_TRUE(sameRecords(*fresh.flatView(), bundle_.trace));
    }

    std::unique_ptr<TempDir> dir_;
    std::unique_ptr<TraceStore> store_;
    memsys::MemoryConfig mem_;
    sim::TraceBundle bundle_;
    std::string path_;
};

TEST_F(TraceStoreCorruptionTest, RejectsTruncatedFile)
{
    fs::resize_file(path_, fs::file_size(path_) / 2);
    expectRejected();
}

TEST_F(TraceStoreCorruptionTest, RejectsFlippedByte)
{
    auto size = static_cast<std::streamoff>(fs::file_size(path_));
    std::fstream f(path_, std::ios::in | std::ios::out |
                       std::ios::binary);
    f.seekg(size / 2);
    char c = static_cast<char>(f.get());
    f.seekp(size / 2);
    f.put(static_cast<char>(c ^ 0x40));
    f.close();
    expectRejected();
}

TEST_F(TraceStoreCorruptionTest, RejectsVersionBump)
{
    // Patch the format version field (bytes 4..8) to a future value;
    // the checksum is irrelevant — version is checked first.
    std::fstream f(path_, std::ios::in | std::ios::out |
                       std::ios::binary);
    f.seekp(4);
    uint32_t future = kBundleFormatVersion + 1;
    f.write(reinterpret_cast<const char *>(&future), 4);
    f.close();
    expectRejected();
}

TEST_F(TraceStoreCorruptionTest, RejectsForeignMagic)
{
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f << "this is not a bundle";
    f.close();
    expectRejected();
}

TEST(TraceStoreTest, LoadBundleViewMatchesLoadBundle)
{
    memsys::MemoryConfig mem;
    sim::TraceBundle bundle =
        sim::generateTrace(sim::AppId::MP3D, mem, true);

    std::stringstream ss;
    saveBundle(bundle, ss);
    std::string bytes = ss.str();

    std::stringstream aos_in(bytes);
    sim::TraceBundle aos = loadBundle(aos_in);
    EXPECT_EQ(aos.trace, bundle.trace);

    std::stringstream view_in(bytes);
    sim::ViewBundle vb = loadBundleView(view_in);
    ASSERT_EQ(vb.view->size(), bundle.trace.size());
    for (size_t i = 0; i < bundle.trace.size(); ++i)
        ASSERT_EQ(vb.view->materialize(i), bundle.trace[i])
            << "record " << i;
    EXPECT_EQ(vb.mp_cycles, bundle.mp_cycles);
    EXPECT_EQ(vb.verified, bundle.verified);
    EXPECT_EQ(vb.stats.instructions, bundle.stats.instructions);
    EXPECT_EQ(vb.cache0.writebacks, bundle.cache0.writebacks);
    EXPECT_EQ(vb.thread0.sync_wait_cycles,
              bundle.thread0.sync_wait_cycles);

    // The container carries a whole-payload checksum: flipping one
    // byte mid-payload must fail the load, through either reader.
    std::string bad = bytes;
    bad[bytes.size() / 2] =
        static_cast<char>(bad[bytes.size() / 2] ^ 0x10);
    std::stringstream bad_aos(bad);
    EXPECT_THROW(loadBundle(bad_aos), std::runtime_error);
    std::stringstream bad_view(bad);
    EXPECT_THROW(loadBundleView(bad_view), std::runtime_error);
}

TEST(TraceStoreTest, WarmStoreServesFromDiskAcrossStoreInstances)
{
    TempDir dir("warm");

    RunnerOptions opts;
    opts.jobs = 4;
    opts.trace_dir = dir.str();
    std::vector<sim::ModelSpec> specs = smallSpecList();

    Campaign cold("cold", opts);
    cold.add(sim::AppId::MP3D, specs, memsys::MemoryConfig{}, true);
    cold.run();
    ASSERT_EQ(cold.sink().traces().size(), 1u);
    EXPECT_EQ(cold.sink().traces()[0].origin, "generated");

    Campaign warm("warm", opts);
    warm.add(sim::AppId::MP3D, specs, memsys::MemoryConfig{}, true);
    warm.run();
    ASSERT_EQ(warm.sink().traces().size(), 1u);
    EXPECT_EQ(warm.sink().traces()[0].origin, "disk");

    // Disk-served results are bit-identical to generated ones.
    for (size_t s = 0; s < specs.size(); ++s) {
        EXPECT_EQ(cold.result(0).rows[s].result,
                  warm.result(0).rows[s].result);
    }
}

// --- ResultSink / JSON export -------------------------------------

TEST(ResultSinkTest, JsonContainsSchemaAndRecords)
{
    ResultSink sink;
    sink.setContext("test_bench", 4, ".dsmem-cache");

    TraceRecord t;
    t.app = "MP3D";
    t.protocol = "MSI";
    t.origin = "generated";
    t.instructions = 1234;
    t.wall_ms = 1.5;
    sink.addTrace(t);

    RunRecord r;
    r.app = "MP3D";
    r.spec = "RC DS-64";
    r.trace_origin = "generated";
    r.result.cycles = 100;
    r.result.breakdown.busy = 60;
    r.result.breakdown.read = 40;
    r.hidden_read = 0.5;
    sink.addRun(r);

    std::ostringstream os;
    sink.writeJson(os);
    std::string json = os.str();

    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"bench\": \"test_bench\""),
              std::string::npos);
    EXPECT_NE(json.find("\"jobs\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"spec\": \"RC DS-64\""), std::string::npos);
    EXPECT_NE(json.find("\"origin\": \"generated\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cycles\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"hidden_read\": 0.500000"),
              std::string::npos);
}

TEST(ResultSinkTest, EscapesStrings)
{
    ResultSink sink;
    sink.setContext("a\"b\\c\nd", 1, "");
    std::ostringstream os;
    sink.writeJson(os);
    EXPECT_NE(os.str().find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(ResultSinkTest, CampaignJsonRoundTripsToFile)
{
    TempDir dir("json");
    Campaign campaign("json_bench", noStoreOptions(2));
    campaign.add(sim::AppId::MP3D,
                 {sim::ModelSpec::base(),
                  sim::ModelSpec::ds(core::ConsistencyModel::RC, 64)},
                 memsys::MemoryConfig{}, true);
    campaign.run();

    fs::create_directories(dir.path());
    std::string path = (dir.path() / "out.json").string();
    ASSERT_TRUE(campaign.writeJson(path));

    std::ifstream is(path);
    std::string json((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(json.find("\"bench\": \"json_bench\""),
              std::string::npos);
    EXPECT_NE(json.find("\"spec\": \"RC DS-64\""), std::string::npos);
    // BASE row present, so the DS row's hidden_read is populated.
    EXPECT_NE(json.find("\"hidden_read\": "), std::string::npos);
    // Empty path is a successful no-op.
    EXPECT_TRUE(campaign.writeJson(""));
}

} // namespace
} // namespace dsmem::runner
