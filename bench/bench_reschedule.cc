/**
 * @file
 * The paper's proposed future work (Section 7): compiler
 * rescheduling of reads under relaxed models, "allowing dynamic
 * processors with small windows or statically scheduled processors
 * with non-blocking reads to effectively hide read latency with
 * simpler hardware".
 *
 * For each application, compare — all under RC — the SS (static,
 * non-blocking reads) machine and the small-window DS machine on the
 * original trace vs. traces rescheduled by a basic-block scheduler
 * (conservative aliasing) and a superblock scheduler with oracle
 * alias analysis.
 */

#include <cstdio>

#include "bench_args.h"
#include "core/rescheduler.h"
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

    std::printf("Compiler load rescheduling under RC "
                "(total time, BASE = 100)\n\n");

    core::RescheduleConfig bb; // Basic-block, conservative aliases.
    core::RescheduleConfig sb; // Superblock, oracle aliases.
    sb.cross_branches = true;
    sb.exact_alias = true;
    sb.max_hoist = 64;

    stats::Table table({"Program", "SS", "SS+bb", "SS+sb", "DS-16",
                        "DS-16+bb", "DS-16+sb", "DS-64",
                        "avg hoist (sb)"});

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

        core::RescheduleStats sb_stats;
        trace::Trace t_bb = core::rescheduleLoads(view, bb);
        trace::Trace t_sb =
            core::rescheduleLoads(view, sb, &sb_stats);

        sim::ModelSpec ss = sim::ModelSpec::ss(core::ConsistencyModel::RC);
        sim::ModelSpec ds16 =
            sim::ModelSpec::ds(core::ConsistencyModel::RC, 16);
        sim::ModelSpec ds64 =
            sim::ModelSpec::ds(core::ConsistencyModel::RC, 64);

        table.beginRow();
        table.cell(std::string(sim::appName(id)));
        table.cell(pct(sim::runModel(view, ss).cycles));
        table.cell(pct(sim::runModel(t_bb, ss).cycles));
        table.cell(pct(sim::runModel(t_sb, ss).cycles));
        table.cell(pct(sim::runModel(view, ds16).cycles));
        table.cell(pct(sim::runModel(t_bb, ds16).cycles));
        table.cell(pct(sim::runModel(t_sb, ds16).cycles));
        table.cell(pct(sim::runModel(view, ds64).cycles));
        table.cell(sb_stats.avgHoist(), 1);
        table.endRow();
    }

    std::printf("%s\n", table.toString().c_str());
    std::printf(
        "Expected: rescheduling moves SS and DS-16 toward the DS-64 "
        "column; the superblock/oracle\nscheduler recovers more than "
        "the basic-block one (branch-dense applications have tiny "
        "blocks).\n");
    return 0;
}
