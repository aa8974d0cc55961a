/**
 * @file
 * Section 6 of the paper discusses two recently proposed techniques
 * for boosting sequential consistency — non-binding prefetch for
 * delayed accesses and speculative execution of read values — noting
 * that "the degree to which these techniques boost the performance
 * of strict consistency models remains to be fully studied". This
 * bench studies it: plain SC vs. SC with both techniques vs. RC, on
 * the dynamically scheduled processor.
 */

#include <cstdio>

#include "bench_args.h"
#include "core/dynamic_processor.h"
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

    std::printf("SC-boosting techniques (speculative reads + store "
                "prefetch) on the DS machine\n");
    std::printf("(total time, BASE = 100)\n\n");

    stats::Table table({"Program", "SC DS-64", "SC+spec DS-64",
                        "RC DS-64", "SC DS-256", "SC+spec DS-256",
                        "RC DS-256"});

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

        table.beginRow();
        table.cell(std::string(sim::appName(id)));
        for (uint32_t window : {64u, 256u}) {
            core::DynamicConfig sc;
            sc.model = core::ConsistencyModel::SC;
            sc.window = window;
            core::DynamicConfig sc_spec = sc;
            sc_spec.sc_speculation = true;
            core::DynamicConfig rc;
            rc.model = core::ConsistencyModel::RC;
            rc.window = window;
            table.cell(pct(core::DynamicProcessor(sc).run(view).cycles));
            table.cell(
                pct(core::DynamicProcessor(sc_spec).run(view).cycles));
            table.cell(pct(core::DynamicProcessor(rc).run(view).cycles));
        }
        table.endRow();
    }

    std::printf("%s\n", table.toString().c_str());
    std::printf("Expected: the boosted SC recovers most of the gap "
                "to RC — the paper's closing point that the\n"
                "underlying overlap mechanisms matter more than the "
                "consistency model exposed to software.\n");
    return 0;
}
