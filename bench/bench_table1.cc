/**
 * @file
 * Reproduces Table 1 of the paper: statistics on data references for
 * a single processor of the 16-processor simulation (counts and
 * references per thousand instructions), at a 50-cycle miss penalty.
 */

#include <cstdio>

#include "bench_args.h"
#include "runner/trace_store.h"
#include "sim/trace_bundle.h"
#include "stats/table.h"

using namespace dsmem;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    bool small = args.small;

    std::printf("Table 1: statistics on data references "
                "(single processor of 16; 50-cycle miss penalty)\n");
    std::printf("Cells are \"count (rate per 1,000 instructions)\".\n\n");

    stats::Table table({"Program", "Busy Cycles", "reads", "writes",
                        "read misses", "write misses", "verified"});
    runner::TraceStore store(args.trace_dir);
    for (sim::AppId id : sim::kAllApps) {
        const sim::ViewBundle &bundle =
            store.getView(id, memsys::MemoryConfig{}, small);
        const trace::TraceStats &s = bundle.stats;
        table.beginRow();
        table.cell(std::string(sim::appName(id)));
        table.cell(stats::Table::withCommas(s.busyCycles()));
        table.cell(stats::Table::countAndRate(s.reads, s.busyCycles()));
        table.cell(stats::Table::countAndRate(s.writes, s.busyCycles()));
        table.cell(
            stats::Table::countAndRate(s.read_misses, s.busyCycles()));
        table.cell(
            stats::Table::countAndRate(s.write_misses, s.busyCycles()));
        table.cell(std::string(bundle.verified ? "yes" : "NO"));
        table.endRow();
    }
    std::printf("%s\n", table.toString().c_str());

    std::printf("Paper reference rates (per 1,000 instructions):\n");
    std::printf("  MP3D  r=230 w=114 rm=24.3 wm=22.5\n");
    std::printf("  LU    r=306 w=151 rm= 7.2 wm= 2.4\n");
    std::printf("  PTHOR r=399 w= 83 rm=23.5 wm= 8.7\n");
    std::printf("  LOCUS r=210 w= 54 rm= 9.3 wm= 5.5\n");
    std::printf("  OCEAN r=302 w=114 rm=21.7 wm=39.3 "
                "(write misses exceed read misses)\n");
    return 0;
}
