/**
 * @file
 * Reproduces Table 2 of the paper: statistics on synchronization
 * references for a single processor of the 16-processor simulation.
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

    std::printf("Table 2: statistics on synchronization "
                "(single processor of 16)\n");
    std::printf("Cells are \"count (rate per 1,000 instructions)\".\n\n");

    stats::Table table({"Program", "locks", "unlocks", "wait event",
                        "set event", "barriers"});
    runner::TraceStore store(args.trace_dir);
    for (sim::AppId id : sim::kAllApps) {
        const sim::ViewBundle &bundle =
            store.getView(id, memsys::MemoryConfig{}, small);
        const trace::TraceStats &s = bundle.stats;
        uint64_t busy = s.busyCycles();
        table.beginRow();
        table.cell(std::string(sim::appName(id)));
        table.cell(stats::Table::countAndRate(s.locks, busy, 2));
        table.cell(stats::Table::countAndRate(s.unlocks, busy, 2));
        table.cell(stats::Table::countAndRate(s.wait_events, busy, 2));
        table.cell(stats::Table::countAndRate(s.set_events, busy, 2));
        table.cell(stats::Table::countAndRate(s.barriers, busy, 2));
        table.endRow();
    }
    std::printf("%s\n", table.toString().c_str());

    std::printf("Paper reference counts (per processor):\n");
    std::printf("  MP3D  locks=40 barriers=30\n");
    std::printf("  LU    wait=199 set=13 barriers=2\n");
    std::printf("  PTHOR locks=6038 wait=134 barriers=249\n");
    std::printf("  LOCUS locks=356 barriers=1\n");
    std::printf("  OCEAN locks=21 barriers=150\n");
    return 0;
}
