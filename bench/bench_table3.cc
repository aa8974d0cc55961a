/**
 * @file
 * Reproduces Table 3 of the paper: statistics on branch behavior —
 * branch density, average distance between branches, BTB prediction
 * accuracy (2048-entry, 4-way, 2-bit counters), and average distance
 * between mispredictions.
 */

#include <cstdio>

#include "bench_args.h"
#include "core/branch_predictor.h"
#include "runner/trace_store.h"
#include "sim/trace_bundle.h"
#include "stats/table.h"

using namespace dsmem;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    bool small = args.small;

    std::printf("Table 3: statistics on branch behavior "
                "(BTB: 2048 entries, 4-way, 2-bit counters)\n\n");

    stats::Table table({"Program", "% of Instructions",
                        "Avg. Dist. bet. Branches",
                        "% Correctly Predicted",
                        "Avg. Dist. bet. Mispredictions"});
    runner::TraceStore store(args.trace_dir);
    for (sim::AppId id : sim::kAllApps) {
        const sim::ViewBundle &bundle =
            store.getView(id, memsys::MemoryConfig{}, small);
        const trace::TraceView &view = *bundle.flatView();
        const trace::TraceStats &s = bundle.stats;

        core::BranchPredictor predictor{core::BtbConfig{}};
        for (size_t i = 0; i < view.size(); ++i) {
            if (view.op(i) == trace::Op::BRANCH)
                predictor.predict(view.branchSite(i), view.taken(i));
        }

        double mispredict_distance = predictor.mispredicts() == 0
            ? 0.0
            : static_cast<double>(s.busyCycles()) /
                static_cast<double>(predictor.mispredicts());

        table.beginRow();
        table.cell(std::string(sim::appName(id)));
        table.cell(stats::Table::percent(s.branchFraction()));
        table.cell(s.avgBranchDistance(), 1);
        table.cell(stats::Table::percent(predictor.accuracy()));
        table.cell(mispredict_distance, 1);
        table.endRow();
    }
    std::printf("%s\n", table.toString().c_str());

    std::printf("Paper reference values:\n");
    std::printf("  MP3D   6.1%%  16.4  90.8%%  176.9\n");
    std::printf("  LU     8.0%%  12.5  98.0%%  618.1\n");
    std::printf("  PTHOR 15.3%%   6.5  81.2%%   34.7\n");
    std::printf("  LOCUS 15.6%%   6.4  92.1%%   81.6\n");
    std::printf("  OCEAN  6.0%%  16.6  97.9%%  778.9\n");
    return 0;
}
