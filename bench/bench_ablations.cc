/**
 * @file
 * Ablations of the design choices the paper discusses in Section 5:
 *
 *  1. MSHR count — the paper assumes a lockup-free cache with
 *     unlimited outstanding misses; how much of the benefit survives
 *     with 1/2/4/8 MSHRs? (1 approximates a blocking cache and
 *     should erase nearly all of the RC+DS read-hiding gain.)
 *  2. FIFO window retirement — the paper calls FIFO deallocation "a
 *     conservative way of using the window"; the free-window variant
 *     releases slots at completion.
 *  3. BTB geometry — "more aggressive branch prediction strategies
 *     may allow higher performance for the applications with poor
 *     branch prediction" (PTHOR, LOCUS).
 *  4. Store buffer depth for the dynamic machine.
 */

#include <cstdio>

#include "bench_args.h"
#include "core/dynamic_processor.h"
#include "runner/trace_store.h"
#include "sim/experiment.h"
#include "sim/trace_bundle.h"
#include "stats/table.h"

using namespace dsmem;

namespace {

double
pctOfBase(uint64_t cycles, uint64_t base)
{
    return 100.0 * static_cast<double>(cycles) /
        static_cast<double>(base == 0 ? 1 : base);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    bool small = args.small;
    runner::TraceStore store(args.trace_dir);

    // ------------------------------------------------------------
    std::printf("Ablation 1: outstanding-miss limit (MSHRs), "
                "RC DS-64 (total time, BASE = 100)\n\n");
    {
        stats::Table table({"Program", "1 MSHR", "2", "4", "8",
                            "unlimited"});
        for (sim::AppId id : sim::kAllApps) {
            const sim::ViewBundle &bundle =
                store.getView(id, memsys::MemoryConfig{}, small);
            const trace::TraceView &view = *bundle.flatView();
            core::RunResult base =
                sim::runModel(view, sim::ModelSpec::base());
            table.beginRow();
            table.cell(std::string(sim::appName(id)));
            for (uint32_t mshrs : {1u, 2u, 4u, 8u, 0u}) {
                core::DynamicConfig config;
                config.window = 64;
                config.mshrs = mshrs;
                core::RunResult r =
                    core::DynamicProcessor(config).run(view);
                table.cell(pctOfBase(r.cycles, base.cycles), 1);
            }
            table.endRow();
        }
        std::printf("%s\n", table.toString().c_str());
    }

    // ------------------------------------------------------------
    std::printf("Ablation 2: FIFO vs. free window deallocation, RC "
                "(total time, BASE = 100)\n\n");
    {
        stats::Table table({"Program", "FIFO W=16", "free W=16",
                            "FIFO W=64", "free W=64"});
        for (sim::AppId id : sim::kAllApps) {
            const sim::ViewBundle &bundle =
                store.getView(id, memsys::MemoryConfig{}, small);
            const trace::TraceView &view = *bundle.flatView();
            core::RunResult base =
                sim::runModel(view, sim::ModelSpec::base());
            table.beginRow();
            table.cell(std::string(sim::appName(id)));
            for (uint32_t window : {16u, 64u}) {
                for (bool free_window : {false, true}) {
                    core::DynamicConfig config;
                    config.window = window;
                    config.free_window = free_window;
                    core::RunResult r =
                        core::DynamicProcessor(config).run(view);
                    table.cell(pctOfBase(r.cycles, base.cycles), 1);
                }
            }
            table.endRow();
        }
        std::printf("%s\n", table.toString().c_str());
    }

    // ------------------------------------------------------------
    std::printf("Ablation 3: BTB geometry, RC DS-256 "
                "(prediction accuracy / total time vs BASE)\n\n");
    {
        struct Geometry {
            uint32_t entries;
            uint32_t assoc;
        };
        const Geometry geometries[] = {
            {64, 1}, {256, 2}, {2048, 4}, {8192, 8}};
        stats::Table table({"Program", "64x1", "256x2",
                            "2048x4 (paper)", "8192x8", "perfect"});
        for (sim::AppId id : sim::kAllApps) {
            const sim::ViewBundle &bundle =
                store.getView(id, memsys::MemoryConfig{}, small);
            const trace::TraceView &view = *bundle.flatView();
            core::RunResult base =
                sim::runModel(view, sim::ModelSpec::base());
            table.beginRow();
            table.cell(std::string(sim::appName(id)));
            for (const Geometry &g : geometries) {
                core::DynamicConfig config;
                config.window = 256;
                config.btb.entries = g.entries;
                config.btb.associativity = g.assoc;
                core::RunResult r =
                    core::DynamicProcessor(config).run(view);
                table.cell(
                    stats::Table::percent(1.0 - r.mispredictRate()) +
                    " / " +
                    stats::Table::fixed(
                        pctOfBase(r.cycles, base.cycles), 1));
            }
            core::DynamicConfig perfect;
            perfect.window = 256;
            perfect.btb.perfect = true;
            core::RunResult r =
                core::DynamicProcessor(perfect).run(view);
            table.cell("100% / " +
                       stats::Table::fixed(
                           pctOfBase(r.cycles, base.cycles), 1));
            table.endRow();
        }
        std::printf("%s\n", table.toString().c_str());
    }

    // ------------------------------------------------------------
    std::printf("Ablation 4: store buffer depth, RC DS-64 "
                "(total time, BASE = 100)\n\n");
    {
        stats::Table table({"Program", "depth 1", "4", "16",
                            "window (default)"});
        for (sim::AppId id : sim::kAllApps) {
            const sim::ViewBundle &bundle =
                store.getView(id, memsys::MemoryConfig{}, small);
            const trace::TraceView &view = *bundle.flatView();
            core::RunResult base =
                sim::runModel(view, sim::ModelSpec::base());
            table.beginRow();
            table.cell(std::string(sim::appName(id)));
            for (uint32_t depth : {1u, 4u, 16u, 0u}) {
                core::DynamicConfig config;
                config.window = 64;
                config.store_buffer_depth = depth;
                core::RunResult r =
                    core::DynamicProcessor(config).run(view);
                table.cell(pctOfBase(r.cycles, base.cycles), 1);
            }
            table.endRow();
        }
        std::printf("%s\n", table.toString().c_str());
    }

    return 0;
}
