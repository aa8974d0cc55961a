/**
 * @file
 * Reproduces the Section 4.1.3 inter-miss-distance analysis: the
 * distribution of instruction distances between successive read
 * misses, which explains why the smallest (16-entry) window performs
 * poorly — the window cannot span the distance between independent
 * misses.
 *
 * Paper claims: in LU ~90% of read misses are 20-30 instructions
 * apart; in OCEAN ~55% are 16-20 apart.
 */

#include <cstdio>

#include "bench_args.h"
#include "runner/trace_store.h"
#include "sim/trace_bundle.h"
#include "trace/trace_stats.h"

using namespace dsmem;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    bool small = args.small;

    std::printf("Section 4.1.3: instruction distance between "
                "successive read misses\n\n");

    runner::TraceStore store(args.trace_dir);
    for (sim::AppId id : sim::kAllApps) {
        const sim::ViewBundle &bundle =
            store.getView(id, memsys::MemoryConfig{}, small);
        stats::Histogram h =
            trace::readMissDistanceHistogram(*bundle.flatView());
        std::printf("%-6s misses=%llu  mean dist=%.1f  "
                    "[16..20]=%.1f%%  [20..32]=%.1f%%  <16=%.1f%%\n",
                    sim::appName(id).data(),
                    static_cast<unsigned long long>(h.count() + 1),
                    h.mean(), 100.0 * h.fractionBetween(16, 19),
                    100.0 * h.fractionBetween(20, 31),
                    100.0 * (1.0 - h.fractionAbove(15)));
        std::printf("%s\n", h.toString("  distance histogram").c_str());
    }

    std::printf("Also: dependence-distance histograms (register "
                "producer -> consumer)\n\n");
    for (sim::AppId id : sim::kAllApps) {
        const sim::ViewBundle &bundle =
            store.getView(id, memsys::MemoryConfig{}, small);
        stats::Histogram h =
            trace::dependenceDistanceHistogram(*bundle.flatView());
        std::printf("%-6s edges=%llu  mean=%.1f  <=4=%.1f%%  "
                    ">16=%.1f%%  >64=%.1f%%\n",
                    sim::appName(id).data(),
                    static_cast<unsigned long long>(h.count()),
                    h.mean(), 100.0 * (1.0 - h.fractionAbove(3)),
                    100.0 * h.fractionAbove(16),
                    100.0 * h.fractionAbove(64));
    }
    return 0;
}
