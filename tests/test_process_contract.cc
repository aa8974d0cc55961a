/**
 * @file
 * Process-level exit-code contract, driven against the *built*
 * bench_figure3 binary the way an operator runs it: absorbed faults
 * exit 0 with byte-identical output, permanently missing rows exit 1,
 * failpoint discovery (--list-failpoints / DSMEM_FAILPOINTS=list)
 * prints the site catalog and exits cleanly, and a malformed numeric
 * flag is a usage error (exit 2).
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "util/failpoint.h"

#ifndef DSMEM_BENCH_FIGURE3
#define DSMEM_BENCH_FIGURE3 ""
#endif

namespace dsmem {
namespace {

namespace fs = std::filesystem;

bool
haveBench()
{
    return DSMEM_BENCH_FIGURE3[0] != '\0' &&
           fs::exists(DSMEM_BENCH_FIGURE3);
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

struct RunOutcome {
    int exit_code = -1; ///< -1: did not exit normally.
    std::string out;
    std::string err;
};

class ProcessContractTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        tmp_ = new fs::path(fs::temp_directory_path() /
                            ("dsmem_contract_test_" +
                             std::to_string(::getpid())));
        fs::remove_all(*tmp_);
        fs::create_directories(*tmp_);
    }
    static void TearDownTestSuite()
    {
        fs::remove_all(*tmp_);
        delete tmp_;
        tmp_ = nullptr;
    }

    /** Run the bench via /bin/sh with @p env prefixed, capturing
     *  stdout/stderr. @p tag names the capture files. */
    static RunOutcome run(const std::string &env,
                          const std::string &args,
                          const std::string &tag)
    {
        fs::path out = *tmp_ / ("out_" + tag);
        fs::path err = *tmp_ / ("err_" + tag);
        std::string cmd = env + (env.empty() ? "" : " ") +
            std::string(DSMEM_BENCH_FIGURE3) + " " + args + " > " +
            out.string() + " 2> " + err.string();
        int status = std::system(cmd.c_str());
        RunOutcome r;
        if (status != -1 && WIFEXITED(status))
            r.exit_code = WEXITSTATUS(status);
        r.out = slurp(out);
        r.err = slurp(err);
        return r;
    }

    static std::string cacheArgs()
    {
        return "--small --jobs 2 --trace-dir " +
               (*tmp_ / "cache").string();
    }

    static fs::path *tmp_;
};

fs::path *ProcessContractTest::tmp_ = nullptr;

TEST_F(ProcessContractTest, ListFailpointsFlagPrintsCatalog)
{
    if (!haveBench())
        GTEST_SKIP() << "bench_figure3 binary unavailable";
    RunOutcome r = run("", "--list-failpoints", "flag_list");
    EXPECT_EQ(r.exit_code, 0) << r.err;
    // One line per catalog entry, service sites included.
    for (const util::FailpointSite &s : util::kFailpointSites)
        EXPECT_NE(r.out.find(std::string(s.name) + "\t"),
                  std::string::npos)
            << s.name;
}

TEST_F(ProcessContractTest, EnvListDiscoveryPrintsAndExitsZero)
{
    if (!haveBench())
        GTEST_SKIP() << "bench_figure3 binary unavailable";
    // `DSMEM_FAILPOINTS=list` short-circuits at static init: the
    // catalog prints and the process exits 0 before any campaign
    // output (so CI drivers can enumerate sites without a build).
    RunOutcome r =
        run("DSMEM_FAILPOINTS=list", cacheArgs(), "env_list");
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.out.find("svc.coord.send\t"), std::string::npos);
    EXPECT_EQ(r.out.find("Figure 3"), std::string::npos)
        << "campaign ran despite list mode";
}

TEST_F(ProcessContractTest, UnknownEnvSiteIsReportedNotSilentlyArmed)
{
    if (!haveBench())
        GTEST_SKIP() << "bench_figure3 binary unavailable";
    RunOutcome r = run("DSMEM_FAILPOINTS=no.such.site:throw",
                       "--list-failpoints", "env_unknown");
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.err.find("unknown failpoint site"),
              std::string::npos)
        << r.err;
}

TEST_F(ProcessContractTest, MalformedNumericFlagsExitTwo)
{
    if (!haveBench())
        GTEST_SKIP() << "bench_figure3 binary unavailable";
    // Numeric flags take plain digits only: a sign or leading
    // whitespace must not wrap or be skipped into a valid value (a
    // wrapped --sample-period would run every row exact under a
    // 2^64-1 period that still enters the campaign signature).
    const char *const bad_args[] = {
        "--sample-period -1 --sample-detailed 400",
        "--sample-seed -3",
        "--jobs ' 2'",
        "--jobs +2",
        "--max-attempts 3x",
    };
    int k = 0;
    for (const char *args : bad_args) {
        RunOutcome r = run("", std::string("--small ") + args,
                           "badflag" + std::to_string(k++));
        EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.err;
        EXPECT_EQ(r.out.find("Figure 3"), std::string::npos)
            << "campaign ran despite " << args;
    }
}

TEST_F(ProcessContractTest, ExitCodeContractUnderInjectedFaults)
{
    if (!haveBench())
        GTEST_SKIP() << "bench_figure3 binary unavailable";

    // Baseline: clean run, warms the shared trace cache.
    RunOutcome clean = run("", cacheArgs(), "clean");
    ASSERT_EQ(clean.exit_code, 0) << clean.err;
    ASSERT_FALSE(clean.out.empty());

    // An absorbed transient fault: one phase-2 job throws once, the
    // retry policy re-runs it, the process exits 0 and the output is
    // byte-identical to the clean run.
    RunOutcome retry = run("DSMEM_FAILPOINTS=campaign.phase2:throw:once",
                           cacheArgs(), "retry");
    EXPECT_EQ(retry.exit_code, 0) << retry.err;
    EXPECT_EQ(retry.out, clean.out);

    // Exhausted retries: every warm-cache bundle load faults, phase 1
    // fails permanently, rows are missing -> exit 1, not a crash.
    RunOutcome fail = run("DSMEM_FAILPOINTS=trace_io.load:throw",
                          cacheArgs(), "fail");
    EXPECT_EQ(fail.exit_code, 1) << fail.err;
    EXPECT_NE(fail.err.find("attempt 3 of 3"), std::string::npos)
        << fail.err;
}

} // namespace
} // namespace dsmem
