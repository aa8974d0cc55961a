#include "bench_args.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "util/failpoint.h"
#include "util/parse.h"

namespace dsmem::bench {

namespace {

void
printUsage(std::FILE *out, const char *prog)
{
    std::fprintf(
        out,
        "usage: %s [--small | --full] [--jobs N] [--trace-dir DIR]\n"
        "       %*s [--no-trace-store] [--json FILE] [--journal FILE]\n"
        "       %*s [--resume] [--max-attempts N] [--job-timeout-ms N]\n"
        "       %*s [--repeat N]\n"
        "\n"
        "  --small           reduced application configurations\n"
        "  --full            paper-scaled configurations\n"
        "  --jobs N          worker threads (default: hardware "
        "concurrency)\n"
        "  --trace-dir DIR   persistent phase-1 trace cache "
        "(default: .dsmem-cache)\n"
        "  --no-trace-store  disable the persistent trace cache\n"
        "  --json FILE       also write structured results as JSON\n"
        "  --journal FILE    record completed work in a crash-safe "
        "journal\n"
        "  --resume          replay --journal, run only missing work\n"
        "  --max-attempts N  retries for transient faults "
        "(default 3)\n"
        "  --job-timeout-ms N  fail jobs over this wall-clock "
        "budget\n"
        "  --repeat N        best-of-N timing rounds after a warmup "
        "(0 = bench default)\n"
        "  --sample-period U   enable SMARTS-style sampling: one "
        "detailed window per U instructions\n"
        "  --sample-detailed N measured instructions per window\n"
        "  --sample-warmup N   detailed-but-unmeasured prefix per "
        "window\n"
        "  --sample-seed S     sampling offset-hash seed (default 1)\n"
        "  --cold            bench_hotloop: rebuild the view between "
        "timing rounds\n"
        "  --stream-gb G     bench_hotloop: memory_bound regime "
        "footprint in GB (0 = skip;\n"
        "                    default 0.25 at --small, 4.0 at --full)\n"
        "  --stable-json     canonical JSON projection (byte-"
        "comparable across job counts)\n"
        "  --store-gc        garbage-collect the trace store before "
        "running\n"
        "  --store-gc-age-days N  GC age threshold in days "
        "(default 7)\n"
        "  --list-failpoints print every registered failpoint site "
        "and exit\n",
        prog, static_cast<int>(std::strlen(prog)), "",
        static_cast<int>(std::strlen(prog)), "",
        static_cast<int>(std::strlen(prog)), "");
}

[[noreturn]] void
usageError(const char *prog, const char *msg, const char *arg)
{
    std::fprintf(stderr, "%s: %s: %s\n", prog, msg, arg);
    printUsage(stderr, prog);
    std::exit(2);
}

/**
 * Split "--flag value" / "--flag=value" uniformly. Returns the value
 * or null when the flag does not match.
 */
const char *
flagValue(std::string_view flag, int argc, char **argv, int &i)
{
    std::string_view arg = argv[i];
    if (arg == flag) {
        if (i + 1 >= argc)
            usageError(argv[0], "missing value for flag", argv[i]);
        return argv[++i];
    }
    if (arg.size() > flag.size() + 1 &&
        arg.substr(0, flag.size()) == flag &&
        arg[flag.size()] == '=') {
        return argv[i] + flag.size() + 1;
    }
    return nullptr;
}

/**
 * The strict decimal value @p v of @p flag in [@p lo, @p hi]; a sign,
 * whitespace, junk or an out-of-range value is a usage error.
 */
uint64_t
numberValue(const char *prog, std::string_view flag, const char *v,
            uint64_t lo = 0, uint64_t hi = UINT64_MAX)
{
    std::optional<uint64_t> n = util::parseUnsigned(v, lo, hi);
    if (!n) {
        std::string msg = "bad " + std::string(flag) + " value";
        usageError(prog, msg.c_str(), v);
    }
    return *n;
}

} // namespace

BenchArgs
parseBenchArgs(int argc, char **argv, bool default_small)
{
    BenchArgs args;
    args.small = default_small;

    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (arg == "--small") {
            args.small = true;
        } else if (arg == "--full") {
            args.small = false;
        } else if (arg == "--no-trace-store") {
            args.trace_dir.clear();
        } else if (arg == "--help" || arg == "-h") {
            printUsage(stdout, argv[0]);
            std::exit(0);
        } else if (const char *v = flagValue("--jobs", argc, argv, i)) {
            args.jobs = static_cast<unsigned>(
                numberValue(argv[0], "--jobs", v, 1, 1024));
        } else if (const char *v =
                       flagValue("--trace-dir", argc, argv, i)) {
            args.trace_dir = v;
        } else if (const char *v = flagValue("--json", argc, argv, i)) {
            args.json_path = v;
        } else if (arg == "--resume") {
            args.resume = true;
        } else if (const char *v =
                       flagValue("--journal", argc, argv, i)) {
            args.journal_path = v;
        } else if (const char *v =
                       flagValue("--max-attempts", argc, argv, i)) {
            args.max_attempts = static_cast<unsigned>(
                numberValue(argv[0], "--max-attempts", v, 1, 100));
        } else if (const char *v =
                       flagValue("--job-timeout-ms", argc, argv, i)) {
            args.job_timeout_ms = static_cast<unsigned>(numberValue(
                argv[0], "--job-timeout-ms", v, 0, 86400 * 1000));
        } else if (const char *v =
                       flagValue("--repeat", argc, argv, i)) {
            args.repeat = static_cast<unsigned>(
                numberValue(argv[0], "--repeat", v, 1, 1000));
        } else if (arg == "--stable-json") {
            args.stable_json = true;
        } else if (arg == "--store-gc") {
            args.store_gc = true;
        } else if (const char *v = flagValue("--store-gc-age-days",
                                             argc, argv, i)) {
            args.store_gc_age_s =
                numberValue(argv[0], "--store-gc-age-days", v, 0,
                            36500) *
                24 * 3600;
        } else if (arg == "--list-failpoints") {
            util::printFailpointSites(stdout);
            std::exit(0);
        } else if (arg == "--cold") {
            args.cold = true;
        } else if (const char *v =
                       flagValue("--stream-gb", argc, argv, i)) {
            char *end = nullptr;
            double g = std::strtod(v, &end);
            if (end == v || *end != '\0' || g < 0.0 || g > 64.0)
                usageError(argv[0], "bad --stream-gb value", v);
            args.stream_gb = g;
        } else if (const char *v =
                       flagValue("--sample-period", argc, argv, i)) {
            args.sampling.period =
                numberValue(argv[0], "--sample-period", v);
        } else if (const char *v =
                       flagValue("--sample-detailed", argc, argv, i)) {
            args.sampling.detailed =
                numberValue(argv[0], "--sample-detailed", v, 1);
        } else if (const char *v =
                       flagValue("--sample-warmup", argc, argv, i)) {
            args.sampling.warmup =
                numberValue(argv[0], "--sample-warmup", v);
        } else if (const char *v =
                       flagValue("--sample-seed", argc, argv, i)) {
            args.sampling.seed =
                numberValue(argv[0], "--sample-seed", v);
        } else {
            usageError(argv[0], "unknown flag", argv[i]);
        }
    }
    if (args.resume && args.journal_path.empty())
        usageError(argv[0], "--resume needs a journal",
                   "pass --journal FILE");
    if (args.sampling.enabled()) {
        std::string why;
        if (!args.sampling.validate(&why))
            usageError(argv[0], "bad sampling plan", why.c_str());
    }
    return args;
}

int
finishCampaign(const runner::Campaign &campaign, const BenchArgs &args)
{
    bool ok = campaign.ok();
    if (!ok)
        std::fprintf(stderr, "%s",
                     campaign.failureSummary().c_str());
    if (!campaign.writeJson(args.json_path)) {
        std::fprintf(stderr, "error: could not write %s\n",
                     args.json_path.c_str());
        ok = false;
    }
    return ok ? 0 : 1;
}

} // namespace dsmem::bench
