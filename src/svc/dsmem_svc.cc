/**
 * @file
 * `dsmem_svc` — the sharded campaign service CLI.
 *
 *   dsmem_svc run --campaign NAME [options]   coordinator + workers
 *   dsmem_svc worker --socket P --id K        one worker (internal)
 *   dsmem_svc serve --socket P [options]      long-lived server
 *   dsmem_svc submit --socket P --campaign N  queue on a server
 *   dsmem_svc stop --socket P                 shut a server down
 *   dsmem_svc gc --trace-dir D [--age-days N] store GC, standalone
 *   dsmem_svc list                            campaign catalog
 *   dsmem_svc --list-failpoints               failpoint site catalog
 *
 * `run` forks N worker processes (re-exec of this binary with the
 * `worker` subcommand), shards the campaign's cells across them, and
 * completes with the same exit-code contract as the bench binaries:
 * 0 iff every declared row holds a result. With --stable-json the
 * JSON export is byte-identical to the same campaign run by its
 * bench binary with --jobs N --stable-json, for any worker count and
 * any kill schedule — the invariant tools/chaos_smoke.py enforces.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "runner/campaign.h"
#include "svc/catalog.h"
#include "svc/coordinator.h"
#include "svc/server.h"
#include "svc/worker.h"
#include "util/failpoint.h"

using namespace dsmem;

namespace {

void
usage(FILE *out)
{
    std::fprintf(
        out,
        "usage: dsmem_svc <command> [options]\n"
        "\n"
        "commands:\n"
        "  run      --campaign NAME [--small|--full] [--workers N]\n"
        "           [--trace-dir D] [--json F] [--stable-json]\n"
        "           [--journal F] [--resume] [--lease-ms N]\n"
        "           [--heartbeat-ms N] [--respawn N] [--socket P]\n"
        "           [--worker-exe E] [--stats-json F] [--store-gc]\n"
        "           [--store-gc-age-days N] [--quiet]\n"
        "  worker   --socket P --id K   (spawned by run; internal)\n"
        "  serve    --socket P [--workers N] [--trace-dir D]\n"
        "           [--lease-ms N] [--heartbeat-ms N] [--respawn N]\n"
        "  submit   --socket P --campaign NAME [--small|--full]\n"
        "           [--workers N] [--json F] [--stable-json]\n"
        "           [--journal F] [--resume] [--trace-dir D]\n"
        "  stop     --socket P\n"
        "  gc       --trace-dir D [--age-days N]\n"
        "  list     print the campaign catalog\n"
        "  --list-failpoints   print every failpoint site and exit\n");
}

/** `--flag value` helper: true when argv[i] is @p flag (advances i). */
bool
flagValue(int argc, char **argv, int &i, const char *flag,
          std::string &out)
{
    if (std::strcmp(argv[i], flag) != 0)
        return false;
    if (i + 1 >= argc) {
        std::fprintf(stderr, "dsmem_svc: %s needs a value\n", flag);
        std::exit(2);
    }
    out = argv[++i];
    return true;
}

unsigned
parseUnsigned(const std::string &v, const char *flag)
{
    char *end = nullptr;
    unsigned long n = std::strtoul(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0') {
        std::fprintf(stderr, "dsmem_svc: bad %s value '%s'\n", flag,
                     v.c_str());
        std::exit(2);
    }
    return static_cast<unsigned>(n);
}

int
cmdRun(int argc, char **argv)
{
    std::string campaign_name, json_path, stats_json, value;
    runner::RunnerOptions ro;
    svc::ServiceOptions so;
    bool small = true;
    for (int i = 0; i < argc; ++i) {
        if (flagValue(argc, argv, i, "--campaign", value))
            campaign_name = value;
        else if (std::strcmp(argv[i], "--small") == 0)
            small = true;
        else if (std::strcmp(argv[i], "--full") == 0)
            small = false;
        else if (flagValue(argc, argv, i, "--workers", value))
            so.workers = parseUnsigned(value, "--workers");
        else if (flagValue(argc, argv, i, "--trace-dir", value))
            ro.trace_dir = value;
        else if (flagValue(argc, argv, i, "--json", value))
            json_path = value;
        else if (std::strcmp(argv[i], "--stable-json") == 0)
            ro.stable_json = true;
        else if (flagValue(argc, argv, i, "--journal", value))
            ro.journal_path = value;
        else if (std::strcmp(argv[i], "--resume") == 0)
            ro.resume = true;
        else if (flagValue(argc, argv, i, "--lease-ms", value))
            so.lease_ms = parseUnsigned(value, "--lease-ms");
        else if (flagValue(argc, argv, i, "--heartbeat-ms", value))
            so.heartbeat_ms = parseUnsigned(value, "--heartbeat-ms");
        else if (flagValue(argc, argv, i, "--respawn", value))
            so.respawn_per_slot = parseUnsigned(value, "--respawn");
        else if (flagValue(argc, argv, i, "--socket", value))
            so.socket_path = value;
        else if (flagValue(argc, argv, i, "--worker-exe", value))
            so.worker_exe = value;
        else if (flagValue(argc, argv, i, "--stats-json", value))
            stats_json = value;
        else if (std::strcmp(argv[i], "--store-gc") == 0)
            ro.store_gc = true;
        else if (flagValue(argc, argv, i, "--store-gc-age-days",
                           value))
            ro.store_gc_age_s =
                uint64_t(parseUnsigned(value, "--store-gc-age-days")) *
                24 * 3600;
        else if (std::strcmp(argv[i], "--quiet") == 0)
            so.print_workers = false;
        else {
            std::fprintf(stderr, "dsmem_svc run: unknown flag %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (campaign_name.empty()) {
        std::fprintf(stderr, "dsmem_svc run: --campaign required\n");
        return 2;
    }
    std::string bench = svc::benchNameFor(campaign_name);
    std::string err;
    if (bench.empty()) {
        std::fprintf(stderr, "dsmem_svc run: unknown campaign '%s'\n",
                     campaign_name.c_str());
        return 2;
    }
    runner::Campaign campaign(bench, ro);
    if (!svc::declareCampaign(campaign_name, small, campaign, &err)) {
        std::fprintf(stderr, "dsmem_svc run: %s\n", err.c_str());
        return 2;
    }
    svc::Coordinator coordinator(campaign, so);
    int code = coordinator.run();
    std::string summary = campaign.failureSummary();
    if (!summary.empty())
        std::fprintf(stderr, "%s", summary.c_str());
    if (!campaign.writeJson(json_path)) {
        std::fprintf(stderr, "dsmem_svc run: cannot write %s\n",
                     json_path.c_str());
        code = code ? code : 1;
    }
    if (!stats_json.empty()) {
        FILE *f = std::fopen(stats_json.c_str(), "w");
        if (f) {
            std::fputs(coordinator.statsJson().c_str(), f);
            std::fputc('\n', f);
            std::fclose(f);
        } else {
            std::fprintf(stderr, "dsmem_svc run: cannot write %s\n",
                         stats_json.c_str());
        }
    }
    return code;
}

int
cmdWorker(int argc, char **argv)
{
    svc::WorkerOptions wo;
    std::string value;
    for (int i = 0; i < argc; ++i) {
        if (flagValue(argc, argv, i, "--socket", value))
            wo.socket_path = value;
        else if (flagValue(argc, argv, i, "--id", value))
            wo.id = parseUnsigned(value, "--id");
        else {
            std::fprintf(stderr,
                         "dsmem_svc worker: unknown flag %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (wo.socket_path.empty()) {
        std::fprintf(stderr,
                     "dsmem_svc worker: --socket required\n");
        return 2;
    }
    return svc::workerMain(wo);
}

int
cmdServe(int argc, char **argv)
{
    svc::ServerOptions so;
    std::string value;
    for (int i = 0; i < argc; ++i) {
        if (flagValue(argc, argv, i, "--socket", value))
            so.socket_path = value;
        else if (flagValue(argc, argv, i, "--workers", value))
            so.svc.workers = parseUnsigned(value, "--workers");
        else if (flagValue(argc, argv, i, "--trace-dir", value))
            so.trace_dir = value;
        else if (flagValue(argc, argv, i, "--lease-ms", value))
            so.svc.lease_ms = parseUnsigned(value, "--lease-ms");
        else if (flagValue(argc, argv, i, "--heartbeat-ms", value))
            so.svc.heartbeat_ms =
                parseUnsigned(value, "--heartbeat-ms");
        else if (flagValue(argc, argv, i, "--respawn", value))
            so.svc.respawn_per_slot =
                parseUnsigned(value, "--respawn");
        else {
            std::fprintf(stderr,
                         "dsmem_svc serve: unknown flag %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (so.socket_path.empty()) {
        std::fprintf(stderr, "dsmem_svc serve: --socket required\n");
        return 2;
    }
    return svc::serveMain(so);
}

int
cmdSubmit(int argc, char **argv)
{
    std::string socket_path, value;
    svc::CampaignReqMsg req;
    for (int i = 0; i < argc; ++i) {
        if (flagValue(argc, argv, i, "--socket", value))
            socket_path = value;
        else if (flagValue(argc, argv, i, "--campaign", value))
            req.name = value;
        else if (std::strcmp(argv[i], "--small") == 0)
            req.small = 1;
        else if (std::strcmp(argv[i], "--full") == 0)
            req.small = 0;
        else if (flagValue(argc, argv, i, "--workers", value))
            req.workers = parseUnsigned(value, "--workers");
        else if (flagValue(argc, argv, i, "--json", value))
            req.json_path = value;
        else if (std::strcmp(argv[i], "--stable-json") == 0)
            req.stable_json = 1;
        else if (flagValue(argc, argv, i, "--journal", value))
            req.journal_path = value;
        else if (std::strcmp(argv[i], "--resume") == 0)
            req.resume = 1;
        else if (flagValue(argc, argv, i, "--trace-dir", value))
            req.trace_dir = value;
        else {
            std::fprintf(stderr,
                         "dsmem_svc submit: unknown flag %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (socket_path.empty() || req.name.empty()) {
        std::fprintf(
            stderr,
            "dsmem_svc submit: --socket and --campaign required\n");
        return 2;
    }
    return svc::submitMain(socket_path, req);
}

int
cmdStop(int argc, char **argv)
{
    std::string socket_path, value;
    for (int i = 0; i < argc; ++i) {
        if (flagValue(argc, argv, i, "--socket", value))
            socket_path = value;
        else {
            std::fprintf(stderr, "dsmem_svc stop: unknown flag %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (socket_path.empty()) {
        std::fprintf(stderr, "dsmem_svc stop: --socket required\n");
        return 2;
    }
    svc::CampaignReqMsg req;
    req.name = "__stop__";
    return svc::submitMain(socket_path, req);
}

int
cmdGc(int argc, char **argv)
{
    std::string trace_dir = ".dsmem-cache", value;
    runner::StoreGcOptions gco;
    for (int i = 0; i < argc; ++i) {
        if (flagValue(argc, argv, i, "--trace-dir", value))
            trace_dir = value;
        else if (flagValue(argc, argv, i, "--age-days", value))
            gco.max_age_s =
                uint64_t(parseUnsigned(value, "--age-days")) * 24 *
                3600;
        else {
            std::fprintf(stderr, "dsmem_svc gc: unknown flag %s\n",
                         argv[i]);
            return 2;
        }
    }
    runner::TraceStore store(trace_dir);
    runner::StoreGcStats st = store.gc(gco);
    std::printf("gc %s: scanned %llu, removed %llu corrupt + %llu "
                "stale + %llu tmp, kept %llu, errors %llu\n",
                trace_dir.c_str(),
                static_cast<unsigned long long>(st.scanned),
                static_cast<unsigned long long>(st.removed_corrupt),
                static_cast<unsigned long long>(st.removed_stale),
                static_cast<unsigned long long>(st.removed_tmp),
                static_cast<unsigned long long>(st.kept),
                static_cast<unsigned long long>(st.errors));
    return st.errors ? 1 : 0;
}

int
cmdList()
{
    for (const svc::CatalogEntry &e : svc::campaignCatalog())
        std::printf("%-10s %s\n", e.name, e.what);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(stderr);
        return 2;
    }
    std::string cmd = argv[1];
    if (cmd == "--list-failpoints") {
        util::printFailpointSites(stdout);
        return 0;
    }
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
        usage(stdout);
        return 0;
    }
    int rest = argc - 2;
    char **rest_argv = argv + 2;
    if (cmd == "run")
        return cmdRun(rest, rest_argv);
    if (cmd == "worker")
        return cmdWorker(rest, rest_argv);
    if (cmd == "serve")
        return cmdServe(rest, rest_argv);
    if (cmd == "submit")
        return cmdSubmit(rest, rest_argv);
    if (cmd == "stop")
        return cmdStop(rest, rest_argv);
    if (cmd == "gc")
        return cmdGc(rest, rest_argv);
    if (cmd == "list")
        return cmdList();
    std::fprintf(stderr, "dsmem_svc: unknown command '%s'\n",
                 cmd.c_str());
    usage(stderr);
    return 2;
}
