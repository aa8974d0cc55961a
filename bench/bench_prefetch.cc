/**
 * @file
 * Tests Section 6's prediction about Baer-Chen-style hardware
 * prefetching: "this scheme may achieve reasonable gains for
 * applications with regular access behavior (e.g., LU and OCEAN)
 * [but] would probably fail to hide latency for applications that do
 * not have such regular characteristics (e.g., MP3D, PTHOR, LOCUS)".
 *
 * For each application: the prefetcher's miss coverage, and the
 * resulting execution time on the *statically scheduled* machine
 * (where prefetching competes head-on with dynamic scheduling as the
 * latency-hiding mechanism) and on DS-16.
 */

#include <cstdio>

#include "bench_args.h"
#include "core/prefetcher.h"
#include "runner/trace_store.h"
#include "sim/experiment.h"
#include "sim/trace_bundle.h"
#include "stats/table.h"

using namespace dsmem;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    bool small = args.small;

    std::printf("Hardware stride prefetching (Section 6 related "
                "work) vs. dynamic scheduling\n");
    std::printf("(total time, BASE = 100)\n\n");

    stats::Table table({"Program", "miss coverage", "RC SSBR",
                        "RC SSBR+pf", "RC DS-16", "RC DS-16+pf",
                        "RC DS-64"});

    runner::TraceStore store(args.trace_dir);
    for (sim::AppId id : sim::kAllApps) {
        const sim::ViewBundle &bundle =
            store.getView(id, memsys::MemoryConfig{}, small);
        const trace::TraceView &view = *bundle.flatView();
        core::RunResult base =
            sim::runModel(view, sim::ModelSpec::base());
        auto pct = [&](uint64_t cycles) {
            return stats::Table::fixed(
                100.0 * static_cast<double>(cycles) /
                    static_cast<double>(base.cycles),
                1);
        };

        core::PrefetchStats stats;
        trace::Trace prefetched = core::applyStridePrefetcher(
            view, core::PrefetchConfig{}, &stats);

        sim::ModelSpec ssbr =
            sim::ModelSpec::ssbr(core::ConsistencyModel::RC);
        sim::ModelSpec ds16 =
            sim::ModelSpec::ds(core::ConsistencyModel::RC, 16);
        sim::ModelSpec ds64 =
            sim::ModelSpec::ds(core::ConsistencyModel::RC, 64);

        table.beginRow();
        table.cell(std::string(sim::appName(id)));
        table.cell(stats::Table::percent(stats.coverage()));
        table.cell(pct(sim::runModel(view, ssbr).cycles));
        table.cell(pct(sim::runModel(prefetched, ssbr).cycles));
        table.cell(pct(sim::runModel(view, ds16).cycles));
        table.cell(pct(sim::runModel(prefetched, ds16).cycles));
        table.cell(pct(sim::runModel(view, ds64).cycles));
        table.endRow();
    }

    std::printf("%s\n", table.toString().c_str());
    std::printf(
        "Expected: coverage ranks by access regularity — LU (pivot "
        "column sweeps) highest, pointer-chasing\nPTHOR lowest — and "
        "prefetching alone never reaches the DS-64 column on the "
        "irregular applications.\nNote: our table is region-indexed "
        "(the trace ISA carries no load PCs), which under-covers "
        "OCEAN's\ninterleaved stencil streams relative to a true "
        "PC-indexed reference prediction table.\n");
    return 0;
}
