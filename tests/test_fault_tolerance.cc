/**
 * @file
 * Fault-tolerance tests for the campaign execution layer: worker-pool
 * exception isolation, retry with deterministic backoff, trace-store
 * quarantine and error surfacing, the trace memo's exception safety, the
 * crash-safe campaign journal, --resume, and the per-job watchdog.
 * Faults are injected with the failpoint registry (util/failpoint.h).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "random_trace.h"
#include "runner/campaign.h"
#include "runner/journal.h"
#include "runner/runner.h"
#include "runner/trace_store.h"
#include "sim/experiment.h"
#include "sim/trace_bundle.h"
#include "util/errors.h"
#include "util/failpoint.h"

namespace dsmem::runner {
namespace {

namespace fs = std::filesystem;

/** A fresh per-test directory, removed on destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("dsmem_fault_test_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }
    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

/** Every test starts and ends with no failpoints armed. */
class FaultToleranceTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::disarmAllFailpoints(); }
    void TearDown() override { util::disarmAllFailpoints(); }
};

sim::TraceBundle
syntheticBundle(uint64_t seed, size_t n)
{
    sim::TraceBundle bundle;
    bundle.trace = testing::randomTrace(seed, n);
    bundle.stats = trace::computeStats(bundle.trace);
    bundle.mp_cycles = 999;
    bundle.verified = true;
    return bundle;
}

std::vector<sim::ModelSpec>
twoSpecs()
{
    std::vector<sim::ModelSpec> specs;
    specs.push_back(sim::ModelSpec::base());
    specs.push_back(
        sim::ModelSpec::ds(core::ConsistencyModel::RC, 16));
    return specs;
}

RunnerOptions
fastOptions(const std::string &trace_dir)
{
    RunnerOptions opts;
    opts.jobs = 2;
    opts.trace_dir = trace_dir;
    opts.backoff_base_ms = 1; // Keep retry tests fast.
    opts.backoff_cap_ms = 4;
    return opts;
}

// --- Runner pool isolates throwing jobs (regression) ----------------

TEST_F(FaultToleranceTest, ThrowingJobDoesNotKillWorkerOrWait)
{
    Runner runner(2);
    std::atomic<int> ran{0};
    std::mutex mu;
    std::vector<std::string> reported;
    runner.setUncaughtHandler(
        [&mu, &reported](const std::string &what) {
            std::lock_guard<std::mutex> lock(mu);
            reported.push_back(what);
        });
    // Before the worker loop caught exceptions, the first throw
    // called std::terminate; even a hypothetical survivor would have
    // skipped the pending-counter decrement and hung wait() forever.
    runner.submit([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 8; ++i)
        runner.submit([&ran] { ++ran; });
    runner.submit([] { throw 42; }); // Non-std::exception payload.
    runner.wait();
    EXPECT_EQ(ran.load(), 8);
    ASSERT_EQ(reported.size(), 2u);
    bool saw_boom = false, saw_nonstd = false;
    for (const std::string &what : reported) {
        saw_boom = saw_boom || what.find("boom") != std::string::npos;
        saw_nonstd = saw_nonstd ||
            what.find("non-standard") != std::string::npos;
    }
    EXPECT_TRUE(saw_boom);
    EXPECT_TRUE(saw_nonstd);
    EXPECT_EQ(runner.uncaughtErrors(), 2u);
}

// --- Campaign retry and permanent failure ---------------------------

TEST_F(FaultToleranceTest, TransientFaultRetriesAndRecovers)
{
    Campaign clean("retry", fastOptions(""));
    clean.add(sim::AppId::MP3D, twoSpecs(), memsys::MemoryConfig{},
              true);
    clean.run();
    ASSERT_TRUE(clean.ok());

    util::armFailpoint(
        {"campaign.phase2", util::FailpointMode::THROW, 0, 1, true});
    Campaign faulty("retry", fastOptions(""));
    faulty.add(sim::AppId::MP3D, twoSpecs(), memsys::MemoryConfig{},
               true);
    faulty.run();

    EXPECT_TRUE(faulty.ok());
    // The injected fault shows up as a recovered, non-fatal error.
    ASSERT_EQ(faulty.sink().errors().size(), 1u);
    EXPECT_FALSE(faulty.sink().errors()[0].fatal);
    EXPECT_EQ(faulty.sink().errors()[0].site, "phase2");
    EXPECT_EQ(faulty.sink().errors()[0].attempts, 2);
    // And the results are exactly what the clean run produced.
    ASSERT_EQ(faulty.result(0).rows.size(), clean.result(0).rows.size());
    for (size_t s = 0; s < clean.result(0).rows.size(); ++s)
        EXPECT_EQ(faulty.result(0).rows[s].result,
                  clean.result(0).rows[s].result);
}

TEST_F(FaultToleranceTest, PermanentFaultFailsUnitOthersComplete)
{
    // Fires on every hit: retries exhaust and phase 2 fails
    // permanently — for every row of every unit.
    util::armFailpoint(
        {"campaign.phase2", util::FailpointMode::THROW, 0, 1, false});
    Campaign campaign("permanent", fastOptions(""));
    campaign.add(sim::AppId::MP3D, twoSpecs(), memsys::MemoryConfig{},
                 true);
    campaign.run();

    EXPECT_FALSE(campaign.ok());
    EXPECT_TRUE(campaign.result(0).failed);
    EXPECT_TRUE(campaign.sink().runs().empty());
    EXPECT_FALSE(campaign.failureSummary().empty());
    bool saw_fatal = false;
    for (const ErrorRecord &e : campaign.sink().errors())
        saw_fatal = saw_fatal ||
            (e.fatal && e.site == "phase2" &&
             e.attempts == static_cast<int>(
                               campaign.options().max_attempts));
    EXPECT_TRUE(saw_fatal);
    // The trace itself resolved fine, so its record is still exported.
    EXPECT_EQ(campaign.sink().traces().size(), 1u);
}

TEST_F(FaultToleranceTest, Phase1FaultFailsWholeUnit)
{
    util::armFailpoint(
        {"campaign.phase1", util::FailpointMode::THROW, 0, 1, false});
    Campaign campaign("p1fail", fastOptions(""));
    campaign.add(sim::AppId::MP3D, twoSpecs(), memsys::MemoryConfig{},
                 true);
    campaign.run();
    EXPECT_FALSE(campaign.ok());
    EXPECT_TRUE(campaign.sink().traces().empty());
    EXPECT_TRUE(campaign.sink().runs().empty());
}

// --- Watchdog -------------------------------------------------------

TEST_F(FaultToleranceTest, OverBudgetJobIsFailedAndDiscarded)
{
    util::armFailpoint(
        {"campaign.phase2", util::FailpointMode::DELAY, 40, 1, false});
    RunnerOptions opts = fastOptions("");
    opts.job_timeout_ms = 5;
    Campaign campaign("watchdog", opts);
    campaign.add(sim::AppId::MP3D, twoSpecs(), memsys::MemoryConfig{},
                 true);
    campaign.run();

    EXPECT_FALSE(campaign.ok());
    bool saw_watchdog = false;
    for (const ErrorRecord &e : campaign.sink().errors())
        saw_watchdog =
            saw_watchdog || (e.fatal && e.site == "watchdog");
    EXPECT_TRUE(saw_watchdog);
    EXPECT_TRUE(campaign.sink().runs().empty());
}

TEST_F(FaultToleranceTest, WatchdogBudgetsAttemptsNotBackoffSleeps)
{
    // One transient fault, then success — but the deterministic
    // backoff sleep between the two attempts far exceeds the job
    // budget. The watchdog times each attempt individually, so a
    // recovered retry must not be converted into a watchdog failure.
    util::armFailpoint(
        {"campaign.phase2", util::FailpointMode::THROW, 0, 1, true});
    RunnerOptions opts = fastOptions("");
    opts.backoff_base_ms = 250;
    opts.backoff_cap_ms = 250;
    opts.job_timeout_ms = 200;
    Campaign campaign("wd_retry", opts);
    campaign.add(sim::AppId::MP3D, twoSpecs(), memsys::MemoryConfig{},
                 true);
    campaign.run();

    EXPECT_TRUE(campaign.ok());
    EXPECT_EQ(campaign.sink().runs().size(), 2u);
    for (const ErrorRecord &e : campaign.sink().errors())
        EXPECT_NE(e.site, "watchdog") << e.message;
}

// --- TraceStore: quarantine, typed rethrow, error surfacing ---------

TEST_F(FaultToleranceTest, CorruptBundleIsQuarantinedNotDeleted)
{
    TempDir dir("quarantine");
    TraceStore store(dir.str());
    memsys::MemoryConfig mem;
    store.store(sim::AppId::MP3D, mem, true,
                syntheticBundle(1, 150));
    fs::path path =
        store.pathFor(sim::AppId::MP3D, mem, true);
    ASSERT_TRUE(fs::exists(path));

    // Flip one payload byte: checksum mismatch on load.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(40);
        f.put('\x7f');
    }
    EXPECT_FALSE(store.loadView(sim::AppId::MP3D, mem, true).has_value());
    EXPECT_FALSE(fs::exists(path)); // Moved aside, not in the way.
    int corpses = 0;
    for (const auto &entry : fs::directory_iterator(dir.path()))
        if (entry.path().filename().string().find(".corrupt.") !=
            std::string::npos)
            ++corpses;
    EXPECT_EQ(corpses, 1);
    StoreStats stats = store.stats();
    EXPECT_EQ(stats.format_errors, 1u);
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.load_hits, 0u);
}

TEST_F(FaultToleranceTest, QuarantineIsBoundedPerName)
{
    TempDir dir("qbound");
    TraceStore store(dir.str());
    memsys::MemoryConfig mem;
    for (int round = 0; round < TraceStore::kMaxQuarantinePerName + 3;
         ++round) {
        store.store(sim::AppId::MP3D, mem, true,
                    syntheticBundle(2, 100));
        fs::path path = store.pathFor(sim::AppId::MP3D, mem, true);
        {
            std::fstream f(path, std::ios::in | std::ios::out |
                                     std::ios::binary);
            f.seekp(30);
            f.put('\x55');
        }
        EXPECT_FALSE(
            store.loadView(sim::AppId::MP3D, mem, true).has_value());
    }
    int corpses = 0;
    for (const auto &entry : fs::directory_iterator(dir.path()))
        if (entry.path().filename().string().find(".corrupt.") !=
            std::string::npos)
            ++corpses;
    EXPECT_LE(corpses, TraceStore::kMaxQuarantinePerName);
    EXPECT_GE(corpses, 1);
}

TEST_F(FaultToleranceTest, TransientReadFaultIsRethrownTyped)
{
    TempDir dir("rethrow");
    TraceStore store(dir.str());
    memsys::MemoryConfig mem;
    store.store(sim::AppId::MP3D, mem, true, syntheticBundle(3, 80));

    util::armFailpoint({"trace_store.open_read",
                        util::FailpointMode::THROW, 0, 1, false});
    EXPECT_THROW(store.loadView(sim::AppId::MP3D, mem, true),
                 util::IoError);
    util::disarmAllFailpoints();
    // The file was not quarantined: the next load succeeds.
    EXPECT_TRUE(store.loadView(sim::AppId::MP3D, mem, true).has_value());
    EXPECT_EQ(store.stats().io_errors, 1u);
    EXPECT_EQ(store.stats().quarantined, 0u);
}

TEST_F(FaultToleranceTest, FailedRenameIsCountedAndReported)
{
    TempDir dir("renameec");
    TraceStore store(dir.str());
    std::vector<std::string> reports;
    store.setErrorHandler(
        [&reports](const std::string &site, const std::string &msg) {
            reports.push_back(site + ": " + msg);
        });
    util::armFailpoint({"trace_store.rename",
                        util::FailpointMode::ERROR_CODE, 0, 1, false});
    memsys::MemoryConfig mem;
    store.store(sim::AppId::MP3D, mem, true, syntheticBundle(4, 80));

    StoreStats stats = store.stats();
    EXPECT_EQ(stats.rename_errors, 1u);
    EXPECT_EQ(stats.store_errors, 1u);
    ASSERT_FALSE(reports.empty());
    EXPECT_NE(reports[0].find("trace_store.save"), std::string::npos);
    // No bundle landed, and no temp file leaked.
    util::disarmAllFailpoints();
    EXPECT_FALSE(store.loadView(sim::AppId::MP3D, mem, true).has_value());
    for (const auto &entry : fs::directory_iterator(dir.path()))
        EXPECT_EQ(entry.path().extension(), ".dsmb")
            << "unexpected leftover " << entry.path();
}

// --- TraceStore::getView exception safety (regression) ------------

TEST_F(FaultToleranceTest, StoreMemoRecoversAfterGenerationThrows)
{
    TraceStore store("");
    util::armFailpoint(
        {"bundle.generate", util::FailpointMode::THROW, 0, 1, true});
    EXPECT_THROW(store.getView(sim::AppId::MP3D,
                               memsys::MemoryConfig{}, true),
                 util::IoError);
    // Before the busy flag was made exception-safe, this second call
    // deadlocked forever on the leaked busy entry.
    const sim::ViewBundle &vb = store.getView(
        sim::AppId::MP3D, memsys::MemoryConfig{}, true);
    EXPECT_GT(vb.stats.instructions, 0u);
}

// --- Journal --------------------------------------------------------

TEST_F(FaultToleranceTest, JournalRoundTripsRowsAndTraces)
{
    TempDir dir("journal");
    std::string path = (dir.path() / "c.journal").string();
    CampaignJournal journal;
    std::string err;
    ASSERT_TRUE(journal.open(path, "bench_x", 42, /*resume=*/false, &err)) << err;

    JournalTrace t{0, "generated", 1234, 1.5, 1.25, 0.0};
    journal.appendTrace(t);
    JournalRow r;
    r.unit = 0;
    r.spec = 1;
    r.label = "RC DS-16 \"quoted\"\n";
    r.result.cycles = 777;
    r.result.breakdown = {100, 200, 300, 400, 500};
    r.result.instructions = 100;
    r.result.branches = 10;
    r.result.mispredicts = 1;
    r.result.read_misses = 5;
    r.wall_ms = 0.25;
    journal.appendRow(r);
    journal.close();

    std::vector<JournalRow> rows;
    std::vector<JournalTrace> traces;
    ASSERT_TRUE(
        CampaignJournal::replay(path, 42, rows, traces, &err))
        << err;
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(traces[0].origin, "generated");
    EXPECT_EQ(traces[0].instructions, 1234u);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].label, r.label);
    EXPECT_EQ(rows[0].result, r.result);
    EXPECT_EQ(rows[0].wall_ms, 0.25);
}

TEST_F(FaultToleranceTest, JournalRefusesWrongSignature)
{
    TempDir dir("jsig");
    std::string path = (dir.path() / "c.journal").string();
    CampaignJournal journal;
    std::string err;
    ASSERT_TRUE(journal.open(path, "bench_x", 42, /*resume=*/false, &err));
    journal.close();

    std::vector<JournalRow> rows;
    std::vector<JournalTrace> traces;
    EXPECT_FALSE(
        CampaignJournal::replay(path, 43, rows, traces, &err));
    EXPECT_NE(err.find("signature"), std::string::npos);
}

TEST_F(FaultToleranceTest, JournalToleratesTornTailRejectsCorruptMiddle)
{
    TempDir dir("jtorn");
    std::string path = (dir.path() / "c.journal").string();
    CampaignJournal journal;
    std::string err;
    ASSERT_TRUE(journal.open(path, "bench_x", 7, /*resume=*/false, &err));
    journal.appendTrace(JournalTrace{0, "disk", 10, 0, 0, 0});
    journal.close();

    // A crash mid-append leaves a torn final line: tolerated.
    {
        std::ofstream os(path, std::ios::app | std::ios::binary);
        os << "{\"t\":\"row\",\"unit\":0,\"spe"; // No newline, cut off.
    }
    std::vector<JournalRow> rows;
    std::vector<JournalTrace> traces;
    ASSERT_TRUE(
        CampaignJournal::replay(path, 7, rows, traces, &err))
        << err;
    EXPECT_EQ(traces.size(), 1u);
    EXPECT_TRUE(rows.empty());

    // The same garbage in the middle is corruption: refused.
    {
        std::ofstream os(path, std::ios::app | std::ios::binary);
        os << "\n{\"t\":\"trace\",\"unit\":0,\"origin\":\"disk\","
              "\"instructions\":1,\"wall_ms\":0,\"gen_ms\":0,"
              "\"load_ms\":0}\n";
    }
    rows.clear();
    traces.clear();
    EXPECT_FALSE(
        CampaignJournal::replay(path, 7, rows, traces, &err));
}

TEST_F(FaultToleranceTest, JournalOpenTrimsTornTailBeforeAppend)
{
    TempDir dir("jtrim");
    std::string path = (dir.path() / "c.journal").string();
    CampaignJournal journal;
    std::string err;
    ASSERT_TRUE(
        journal.open(path, "bench_x", 7, /*resume=*/false, &err));
    journal.close();

    // Crash mid-append: a torn row prefix with no newline. If a
    // later run appended onto this line, first-occurrence field
    // extraction would stitch unit/spec/label/cycles from the torn
    // prefix onto the rest of the appended record — a syntactically
    // valid chimera row restored as a real result.
    {
        std::ofstream os(path, std::ios::app | std::ios::binary);
        os << "{\"t\":\"row\",\"unit\":5,\"spec\":9,"
              "\"label\":\"chimera\",\"cycles\":123";
    }

    CampaignJournal again;
    ASSERT_TRUE(
        again.open(path, "bench_x", 7, /*resume=*/true, &err))
        << err;
    JournalRow r;
    r.unit = 0;
    r.spec = 1;
    r.label = "real";
    r.result.cycles = 42;
    again.appendRow(r);
    again.close();

    std::vector<JournalRow> rows;
    std::vector<JournalTrace> traces;
    ASSERT_TRUE(CampaignJournal::replay(path, 7, rows, traces, &err))
        << err;
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].unit, 0u);
    EXPECT_EQ(rows[0].spec, 1u);
    EXPECT_EQ(rows[0].label, "real");
    EXPECT_EQ(rows[0].result.cycles, 42u);
}

TEST_F(FaultToleranceTest, JournalOpenRefusesForeignOrHeaderlessFile)
{
    TempDir dir("jforeign");
    std::string path = (dir.path() / "c.journal").string();
    CampaignJournal journal;
    std::string err;
    ASSERT_TRUE(
        journal.open(path, "bench_x", 42, /*resume=*/false, &err));
    journal.appendTrace(JournalTrace{0, "disk", 10, 0, 0, 0});
    journal.close();

    // Another campaign (different signature) must not append into
    // this journal — with or without --resume.
    CampaignJournal other;
    EXPECT_FALSE(
        other.open(path, "bench_y", 43, /*resume=*/true, &err));
    EXPECT_NE(err.find("signature"), std::string::npos);
    EXPECT_FALSE(
        other.open(path, "bench_y", 43, /*resume=*/false, &err));
    EXPECT_NE(err.find("signature"), std::string::npos);

    // The refused file is untouched: the original still resumes.
    std::vector<JournalRow> rows;
    std::vector<JournalTrace> traces;
    ASSERT_TRUE(CampaignJournal::replay(path, 42, rows, traces, &err))
        << err;
    EXPECT_EQ(traces.size(), 1u);

    // A non-empty file with no parseable header is refused too.
    std::string junk = (dir.path() / "junk.journal").string();
    {
        std::ofstream os(junk, std::ios::binary);
        os << "not a journal\n";
    }
    EXPECT_FALSE(
        other.open(junk, "bench_y", 43, /*resume=*/true, &err));
    EXPECT_NE(err.find("header"), std::string::npos);
}

TEST_F(FaultToleranceTest, JournalOpenWithoutResumeStartsFresh)
{
    TempDir dir("jfresh");
    std::string path = (dir.path() / "c.journal").string();
    CampaignJournal journal;
    std::string err;
    ASSERT_TRUE(
        journal.open(path, "bench_x", 7, /*resume=*/false, &err));
    journal.appendTrace(JournalTrace{0, "disk", 10, 0, 0, 0});
    journal.close();

    // Restarting the same campaign without --resume: stale records
    // are dropped, not duplicated under a second header.
    CampaignJournal again;
    ASSERT_TRUE(
        again.open(path, "bench_x", 7, /*resume=*/false, &err));
    again.close();

    std::vector<JournalRow> rows;
    std::vector<JournalTrace> traces;
    ASSERT_TRUE(CampaignJournal::replay(path, 7, rows, traces, &err))
        << err;
    EXPECT_TRUE(rows.empty());
    EXPECT_TRUE(traces.empty());
}

TEST_F(FaultToleranceTest, JournalRejectsNegativeAndNonNumericFields)
{
    TempDir dir("jneg");
    std::string path = (dir.path() / "c.journal").string();
    // strtoull would silently wrap "-1" to UINT64_MAX; the parser
    // must treat it as corruption instead.
    {
        std::ofstream os(path, std::ios::binary);
        os << "{\"t\":\"campaign\",\"version\":1,\"bench\":\"x\","
              "\"signature\":7}\n"
           << "{\"t\":\"row\",\"unit\":-1,\"spec\":0,"
              "\"label\":\"l\",\"cycles\":1,\"busy\":1,\"sync\":1,"
              "\"read\":1,\"write\":1,\"pipeline\":1,"
              "\"instructions\":1,\"branches\":1,\"mispredicts\":1,"
              "\"read_misses\":1,\"wall_ms\":0.5}\n";
    }
    std::vector<JournalRow> rows;
    std::vector<JournalTrace> traces;
    std::string err;
    EXPECT_FALSE(
        CampaignJournal::replay(path, 7, rows, traces, &err));

    // Same for a nan double.
    {
        std::ofstream os(path, std::ios::binary);
        os << "{\"t\":\"campaign\",\"version\":1,\"bench\":\"x\","
              "\"signature\":7}\n"
           << "{\"t\":\"trace\",\"unit\":0,\"origin\":\"disk\","
              "\"instructions\":1,\"wall_ms\":nan,\"gen_ms\":0.0,"
              "\"load_ms\":0.0}\n";
    }
    rows.clear();
    traces.clear();
    EXPECT_FALSE(
        CampaignJournal::replay(path, 7, rows, traces, &err));
}

TEST_F(FaultToleranceTest, JournalRejectsDataBeforeHeader)
{
    TempDir dir("jorder");
    std::string path = (dir.path() / "c.journal").string();
    // A data record before the header must not be blessed by a
    // header appearing later in the file.
    {
        std::ofstream os(path, std::ios::binary);
        os << "{\"t\":\"trace\",\"unit\":0,\"origin\":\"disk\","
              "\"instructions\":1,\"wall_ms\":0.0,\"gen_ms\":0.0,"
              "\"load_ms\":0.0}\n"
           << "{\"t\":\"campaign\",\"version\":1,\"bench\":\"x\","
              "\"signature\":7}\n";
    }
    std::vector<JournalRow> rows;
    std::vector<JournalTrace> traces;
    std::string err;
    EXPECT_FALSE(
        CampaignJournal::replay(path, 7, rows, traces, &err));
    EXPECT_NE(err.find("header"), std::string::npos);
}

TEST_F(FaultToleranceTest, JournalWriteFailureIsNonFatal)
{
    TempDir dir("jfail");
    RunnerOptions opts = fastOptions("");
    opts.journal_path = (dir.path() / "c.journal").string();
    util::armFailpoint(
        {"journal.append", util::FailpointMode::ERROR_CODE, 0, 1,
         false});
    Campaign campaign("jfail", opts);
    campaign.add(sim::AppId::MP3D, twoSpecs(), memsys::MemoryConfig{},
                 true);
    campaign.run();
    // The campaign still completed; the dead journal is reported.
    EXPECT_TRUE(campaign.ok());
    EXPECT_EQ(campaign.sink().runs().size(), 2u);
    bool saw_journal_error = false;
    for (const ErrorRecord &e : campaign.sink().errors())
        saw_journal_error = saw_journal_error ||
            (!e.fatal && e.site == "journal");
    EXPECT_TRUE(saw_journal_error);
}

// --- Resume ---------------------------------------------------------

TEST_F(FaultToleranceTest, ResumeReExecutesOnlyMissingWork)
{
    TempDir dir("resume");
    std::string journal = (dir.path() / "c.journal").string();
    std::string cache = (dir.path() / "cache").string();

    RunnerOptions opts = fastOptions(cache);
    opts.journal_path = journal;
    Campaign first("resume_bench", opts);
    first.add(sim::AppId::MP3D, twoSpecs(), memsys::MemoryConfig{},
              true);
    first.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
              true);
    first.run();
    ASSERT_TRUE(first.ok());

    // Simulate a crash that lost the tail of the journal: keep the
    // header, the first trace record, and one row.
    std::vector<std::string> lines;
    {
        std::ifstream is(journal);
        std::string line;
        while (std::getline(is, line))
            lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 3u);
    {
        std::ofstream os(journal, std::ios::trunc);
        for (size_t i = 0; i < 3; ++i)
            os << lines[i] << "\n";
    }

    RunnerOptions resume_opts = opts;
    resume_opts.resume = true;
    Campaign second("resume_bench", resume_opts);
    second.add(sim::AppId::MP3D, twoSpecs(), memsys::MemoryConfig{},
               true);
    second.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
               true);
    second.run();
    ASSERT_TRUE(second.ok());

    for (size_t u = 0; u < first.size(); ++u) {
        ASSERT_EQ(second.result(u).rows.size(),
                  first.result(u).rows.size());
        for (size_t s = 0; s < first.result(u).rows.size(); ++s) {
            EXPECT_EQ(second.result(u).rows[s].result,
                      first.result(u).rows[s].result)
                << "unit " << u << " row " << s;
        }
    }
    // And the completed journal now resumes to a full skip: a third
    // campaign re-executes nothing (its store sees zero loads).
    Campaign third("resume_bench", resume_opts);
    third.add(sim::AppId::MP3D, twoSpecs(), memsys::MemoryConfig{},
              true);
    third.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
              true);
    third.run();
    ASSERT_TRUE(third.ok());
    EXPECT_EQ(third.storeStats().loads, 0u);
    for (size_t u = 0; u < first.size(); ++u)
        for (size_t s = 0; s < first.result(u).rows.size(); ++s)
            EXPECT_EQ(third.result(u).rows[s].result,
                      first.result(u).rows[s].result);
}

// --- Live-point (.dslp) faults --------------------------------------

sim::SamplingPlan
samplingPlan()
{
    sim::SamplingPlan plan;
    plan.period = 4000;
    plan.detailed = 400;
    plan.warmup = 1200;
    return plan;
}

TEST_F(FaultToleranceTest, CorruptLivePointsAreQuarantinedAndRecomputed)
{
    TempDir dir("dslp_corrupt");
    RunnerOptions opts = fastOptions(dir.str());
    opts.sampling = samplingPlan();

    Campaign first("dslp", opts);
    first.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
              true);
    first.run();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.result(0).row_sampling[1].sampled);

    // The warm pass persisted its live points next to the bundle.
    TraceStore probe(dir.str());
    fs::path dslp = probe.livePointPathFor(
        sim::AppId::LU, memsys::MemoryConfig{}, true, opts.sampling);
    ASSERT_TRUE(fs::exists(dslp));

    // Flip a payload byte: the next campaign must quarantine the
    // corpse, rewarm from the trace, and produce identical results.
    {
        std::fstream f(dslp, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(40);
        f.put('\x7f');
    }
    Campaign second("dslp", opts);
    second.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
               true);
    second.run();
    ASSERT_TRUE(second.ok()) << second.failureSummary();
    EXPECT_GE(second.storeStats().quarantined, 1u);
    EXPECT_GE(second.storeStats().format_errors, 1u);
    for (size_t s = 0; s < first.result(0).rows.size(); ++s) {
        EXPECT_EQ(second.result(0).rows[s].result,
                  first.result(0).rows[s].result);
        EXPECT_EQ(second.result(0).row_sampling[s],
                  first.result(0).row_sampling[s]);
    }
    // And the rewarmed points landed back on disk, loadable.
    EXPECT_TRUE(fs::exists(dslp));
    Campaign third("dslp", opts);
    third.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
              true);
    third.run();
    ASSERT_TRUE(third.ok());
    EXPECT_GE(third.storeStats().load_hits, 1u);
}

TEST_F(FaultToleranceTest, LivePointWriteFaultIsAbsorbed)
{
    TempDir dir("dslp_wfault");
    RunnerOptions opts = fastOptions(dir.str());
    opts.sampling = samplingPlan();
    util::armFailpoint(
        {"dslp.write", util::FailpointMode::THROW, 0, 1, false});

    Campaign campaign("dslp_w", opts);
    campaign.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
                 true);
    campaign.run();

    // Persisting live points is an optimization; losing it never
    // fails the campaign, and the rows still sampled from the
    // in-memory warm pass.
    EXPECT_TRUE(campaign.ok()) << campaign.failureSummary();
    EXPECT_TRUE(campaign.result(0).row_sampling[1].sampled);
    EXPECT_GE(campaign.storeStats().store_errors, 1u);
    TraceStore probe(dir.str());
    EXPECT_FALSE(fs::exists(probe.livePointPathFor(
        sim::AppId::LU, memsys::MemoryConfig{}, true, opts.sampling)));
}

TEST_F(FaultToleranceTest, TransientLivePointReadFaultRetries)
{
    TempDir dir("dslp_rfault");
    RunnerOptions opts = fastOptions(dir.str());
    opts.sampling = samplingPlan();

    Campaign first("dslp_r", opts);
    first.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
              true);
    first.run();
    ASSERT_TRUE(first.ok());

    // One transient IoError on the .dslp read: the phase-1 retry
    // loop recovers and the results match the clean run.
    util::armFailpoint(
        {"dslp.read", util::FailpointMode::THROW, 0, 1, true});
    Campaign second("dslp_r", opts);
    second.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
               true);
    second.run();
    ASSERT_TRUE(second.ok()) << second.failureSummary();
    bool recovered = false;
    for (const ErrorRecord &e : second.sink().errors())
        recovered = recovered || (!e.fatal && e.attempts >= 2);
    EXPECT_TRUE(recovered);
    for (size_t s = 0; s < first.result(0).rows.size(); ++s)
        EXPECT_EQ(second.result(0).rows[s].result,
                  first.result(0).rows[s].result);
}

TEST_F(FaultToleranceTest, ResumeRestoresSampledSummaries)
{
    TempDir dir("dslp_resume");
    std::string journal = (dir.path() / "c.journal").string();
    RunnerOptions opts = fastOptions((dir.path() / "cache").string());
    opts.sampling = samplingPlan();
    opts.journal_path = journal;

    Campaign first("dslp_resume", opts);
    first.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
              true);
    first.run();
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.result(0).row_sampling[1].sampled);

    // A full-skip resume restores the sampling statistics from the
    // journal alone — no store loads, no warm pass, identical rows.
    RunnerOptions resume_opts = opts;
    resume_opts.resume = true;
    Campaign second("dslp_resume", resume_opts);
    second.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
               true);
    second.run();
    ASSERT_TRUE(second.ok()) << second.failureSummary();
    EXPECT_EQ(second.storeStats().loads, 0u);
    for (size_t s = 0; s < first.result(0).rows.size(); ++s) {
        EXPECT_EQ(second.result(0).rows[s].result,
                  first.result(0).rows[s].result);
        EXPECT_EQ(second.result(0).row_sampling[s],
                  first.result(0).row_sampling[s]);
    }
}

TEST_F(FaultToleranceTest, ResumeRefusesPlanChange)
{
    TempDir dir("dslp_sig");
    std::string journal = (dir.path() / "c.journal").string();
    RunnerOptions opts = fastOptions("");
    opts.journal_path = journal;

    // Journal written by an exact campaign...
    Campaign exact("dslp_sig", opts);
    exact.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
              true);
    exact.run();
    ASSERT_TRUE(exact.ok());

    // ...must not satisfy a sampled re-sweep: estimates and exact
    // results are not interchangeable rows.
    RunnerOptions sampled_opts = opts;
    sampled_opts.resume = true;
    sampled_opts.sampling = samplingPlan();
    Campaign sampled("dslp_sig", sampled_opts);
    sampled.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
                true);
    sampled.run();
    EXPECT_FALSE(sampled.ok());
    EXPECT_NE(sampled.failureSummary().find("signature"),
              std::string::npos);
}

TEST_F(FaultToleranceTest, MalformedPlanFailsCampaignUpFront)
{
    RunnerOptions opts = fastOptions("");
    opts.sampling.period = 1000;
    opts.sampling.detailed = 900;
    opts.sampling.warmup = 900; // Window exceeds the period.
    Campaign campaign("badplan", opts);
    campaign.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
                 true);
    campaign.run();
    EXPECT_FALSE(campaign.ok());
    EXPECT_TRUE(campaign.sink().runs().empty());
    EXPECT_NE(campaign.failureSummary().find("sampling"),
              std::string::npos);
}

TEST_F(FaultToleranceTest, ResumeRefusesForeignJournal)
{
    TempDir dir("foreign");
    std::string journal = (dir.path() / "c.journal").string();

    RunnerOptions opts = fastOptions("");
    opts.journal_path = journal;
    Campaign first("bench_a", opts);
    first.add(sim::AppId::MP3D, twoSpecs(), memsys::MemoryConfig{},
              true);
    first.run();
    ASSERT_TRUE(first.ok());

    // Different declarations, same journal: refuse, run nothing.
    RunnerOptions resume_opts = opts;
    resume_opts.resume = true;
    Campaign second("bench_b", resume_opts);
    second.add(sim::AppId::LU, twoSpecs(), memsys::MemoryConfig{},
               true);
    second.run();
    EXPECT_FALSE(second.ok());
    EXPECT_TRUE(second.sink().runs().empty());
    EXPECT_NE(second.failureSummary().find("signature"),
              std::string::npos);
}

} // namespace
} // namespace dsmem::runner
