/**
 * @file
 * Trace utility: generate, save, inspect, and re-time annotated
 * traces without re-running the multiprocessor simulation.
 *
 *   $ ./trace_tool gen LU /tmp/lu.trace        # phase 1 once
 *   $ ./trace_tool info /tmp/lu.trace          # Table-1-style stats
 *   $ ./trace_tool run /tmp/lu.trace RC 64     # phase 2, any config
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/dynamic_processor.h"
#include "sim/experiment.h"
#include "sim/trace_bundle.h"
#include "trace/trace_io.h"
#include "trace/trace_stats.h"

using namespace dsmem;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  trace_tool gen  <MP3D|LU|PTHOR|LOCUS|OCEAN> <file> "
        "[miss_latency]\n"
        "  trace_tool info <file>\n"
        "  trace_tool run  <file> <SC|PC|WO|RC> <window>\n");
    return 1;
}

int
cmdGen(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    for (sim::AppId id : sim::kAllApps) {
        if (sim::appName(id) == argv[2]) {
            memsys::MemoryConfig mem;
            if (argc > 4) {
                mem.miss_latency = static_cast<uint32_t>(
                    std::strtoul(argv[4], nullptr, 10));
            }
            sim::TraceBundle bundle = sim::generateTrace(id, mem);
            if (!bundle.verified) {
                std::fprintf(stderr,
                             "application verification FAILED\n");
                return 1;
            }
            trace::saveTraceFile(bundle.trace, argv[3]);
            std::printf("wrote %zu instructions to %s\n",
                        bundle.trace.size(), argv[3]);
            return 0;
        }
    }
    std::fprintf(stderr, "unknown application '%s'\n", argv[2]);
    return 1;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    trace::Trace t = trace::loadTraceFile(argv[2]);
    trace::TraceStats s = trace::computeStats(t);
    std::printf("trace '%s': %zu entries\n", t.name().c_str(),
                t.size());
    std::printf("  instructions   %llu\n",
                static_cast<unsigned long long>(s.instructions));
    std::printf("  reads          %llu (%.1f/1000), misses %llu "
                "(%.1f/1000)\n",
                static_cast<unsigned long long>(s.reads),
                s.ratePerThousand(s.reads),
                static_cast<unsigned long long>(s.read_misses),
                s.ratePerThousand(s.read_misses));
    std::printf("  writes         %llu (%.1f/1000), misses %llu "
                "(%.1f/1000)\n",
                static_cast<unsigned long long>(s.writes),
                s.ratePerThousand(s.writes),
                static_cast<unsigned long long>(s.write_misses),
                s.ratePerThousand(s.write_misses));
    std::printf("  branches       %llu (%.1f%% of instructions)\n",
                static_cast<unsigned long long>(s.branches),
                100.0 * s.branchFraction());
    std::printf("  sync           locks %llu, unlocks %llu, waits "
                "%llu, sets %llu, barriers %llu\n",
                static_cast<unsigned long long>(s.locks),
                static_cast<unsigned long long>(s.unlocks),
                static_cast<unsigned long long>(s.wait_events),
                static_cast<unsigned long long>(s.set_events),
                static_cast<unsigned long long>(s.barriers));

    stats::Histogram dist =
        trace::readMissDistanceHistogram(trace::TraceView(t));
    std::printf("  mean distance between read misses: %.1f "
                "instructions\n",
                dist.mean());
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 5)
        return usage();
    trace::Trace t = trace::loadTraceFile(argv[2]);

    core::ConsistencyModel model;
    if (std::strcmp(argv[3], "SC") == 0)
        model = core::ConsistencyModel::SC;
    else if (std::strcmp(argv[3], "PC") == 0)
        model = core::ConsistencyModel::PC;
    else if (std::strcmp(argv[3], "WO") == 0)
        model = core::ConsistencyModel::WO;
    else if (std::strcmp(argv[3], "RC") == 0)
        model = core::ConsistencyModel::RC;
    else
        return usage();

    uint32_t window =
        static_cast<uint32_t>(std::strtoul(argv[4], nullptr, 10));

    core::RunResult base =
        sim::runModel(t, sim::ModelSpec::base());
    core::RunResult r =
        sim::runModel(t, sim::ModelSpec::ds(model, window));
    std::printf("BASE      : %llu cycles\n",
                static_cast<unsigned long long>(base.cycles));
    std::printf("%s DS-%-4u: %llu cycles (%.1f%% of BASE; busy %llu, "
                "sync %llu, read %llu, write %llu)\n",
                core::consistencyName(model).data(), window,
                static_cast<unsigned long long>(r.cycles),
                100.0 * static_cast<double>(r.cycles) /
                    static_cast<double>(base.cycles),
                static_cast<unsigned long long>(
                    r.breakdown.busyMerged()),
                static_cast<unsigned long long>(r.breakdown.sync),
                static_cast<unsigned long long>(r.breakdown.read),
                static_cast<unsigned long long>(r.breakdown.write));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "gen") == 0)
        return cmdGen(argc, argv);
    if (std::strcmp(argv[1], "info") == 0)
        return cmdInfo(argc, argv);
    if (std::strcmp(argv[1], "run") == 0)
        return cmdRun(argc, argv);
    return usage();
}
