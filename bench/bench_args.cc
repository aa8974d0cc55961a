#include "bench_args.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "util/failpoint.h"
#include "util/simd.h"

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
        "       %*s [--repeat N] [--no-fuse]\n"
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
        "  --no-fuse         disable fused window sweeps in campaign "
        "phase 2\n"
        "  --sample-period U   enable SMARTS-style sampling: one "
        "detailed window per U instructions\n"
        "  --sample-detailed N measured instructions per window\n"
        "  --sample-warmup N   detailed-but-unmeasured prefix per "
        "window\n"
        "  --sample-seed S     sampling offset-hash seed (default 1)\n"
        "  --cold            bench_hotloop: reload the trace between "
        "timing rounds\n"
        "  --stream-gb G     bench_hotloop: memory_bound regime "
        "footprint in GB (0 = skip;\n"
        "                    default 0.25 at --small, 4.0 at --full)\n"
        "  --simd MODE       auto|scalar: sweep backend (scalar "
        "forces the portable\n"
        "                    struct-of-lanes instantiation; auto also "
        "honors DSMEM_SIMD=scalar)\n"
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
            char *end = nullptr;
            long n = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || n < 1 || n > 1024)
                usageError(argv[0], "bad --jobs value", v);
            args.jobs = static_cast<unsigned>(n);
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
            char *end = nullptr;
            long n = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || n < 1 || n > 100)
                usageError(argv[0], "bad --max-attempts value", v);
            args.max_attempts = static_cast<unsigned>(n);
        } else if (const char *v =
                       flagValue("--job-timeout-ms", argc, argv, i)) {
            char *end = nullptr;
            long n = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || n < 0 ||
                n > 86400 * 1000L)
                usageError(argv[0], "bad --job-timeout-ms value", v);
            args.job_timeout_ms = static_cast<unsigned>(n);
        } else if (const char *v =
                       flagValue("--repeat", argc, argv, i)) {
            char *end = nullptr;
            long n = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || n < 1 || n > 1000)
                usageError(argv[0], "bad --repeat value", v);
            args.repeat = static_cast<unsigned>(n);
        } else if (arg == "--no-fuse") {
            args.no_fuse = true;
        } else if (arg == "--stable-json") {
            args.stable_json = true;
        } else if (arg == "--store-gc") {
            args.store_gc = true;
        } else if (const char *v = flagValue("--store-gc-age-days",
                                             argc, argv, i)) {
            char *end = nullptr;
            long n = std::strtol(v, &end, 10);
            if (end == v || *end != '\0' || n < 0 || n > 36500)
                usageError(argv[0], "bad --store-gc-age-days value",
                           v);
            args.store_gc_age_s =
                static_cast<uint64_t>(n) * 24 * 3600;
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
        } else if (const char *v = flagValue("--simd", argc, argv, i)) {
            std::string_view mode = v;
            if (mode != "auto" && mode != "scalar")
                usageError(argv[0], "bad --simd value (auto|scalar)",
                           v);
            args.simd = mode;
            // Flag beats the DSMEM_SIMD environment seed either way:
            // an explicit auto re-enables SIMD under a scalar env.
            util::simd::setForceScalar(mode == "scalar");
        } else if (const char *v =
                       flagValue("--sample-period", argc, argv, i)) {
            char *end = nullptr;
            unsigned long long n = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0')
                usageError(argv[0], "bad --sample-period value", v);
            args.sampling.period = n;
        } else if (const char *v =
                       flagValue("--sample-detailed", argc, argv, i)) {
            char *end = nullptr;
            unsigned long long n = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0' || n < 1)
                usageError(argv[0], "bad --sample-detailed value", v);
            args.sampling.detailed = n;
        } else if (const char *v =
                       flagValue("--sample-warmup", argc, argv, i)) {
            char *end = nullptr;
            unsigned long long n = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0')
                usageError(argv[0], "bad --sample-warmup value", v);
            args.sampling.warmup = n;
        } else if (const char *v =
                       flagValue("--sample-seed", argc, argv, i)) {
            char *end = nullptr;
            unsigned long long n = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0')
                usageError(argv[0], "bad --sample-seed value", v);
            args.sampling.seed = n;
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
