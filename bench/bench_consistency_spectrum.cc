/**
 * @file
 * The full consistency spectrum of the paper's Figure 1 — SC, PC, WO
 * (weak ordering), RC — on static and dynamic processors. The paper
 * evaluates SC/PC/RC and describes WO as RC without the
 * acquire/release distinction (Section 2.1); this bench fills in the
 * WO column. Expected: WO sits between PC and RC; the gap to RC is
 * the cost of treating releases as full fences.
 */

#include <cstdio>

#include "bench_args.h"
#include "core/dynamic_processor.h"
#include "core/static_processor.h"
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

    std::printf("Consistency spectrum: SC / PC / WO / RC on SSBR and "
                "DS-64 (total time, BASE = 100)\n\n");

    runner::TraceStore store(args.trace_dir);
    stats::Table table({"Program", "SC SSBR", "PC SSBR", "WO SSBR",
                        "RC SSBR", "SC DS-64", "PC DS-64", "WO DS-64",
                        "RC DS-64"});

    for (sim::AppId id : sim::kAllApps) {
        const sim::ViewBundle &bundle =
            store.getView(id, memsys::MemoryConfig{}, small);
        const trace::TraceView &view = *bundle.flatView();
        core::RunResult base =
            sim::runModel(view, sim::ModelSpec::base());
        auto norm = [&](uint64_t cycles) {
            return stats::Table::fixed(100.0 *
                                           static_cast<double>(cycles) /
                                           static_cast<double>(
                                               base.cycles),
                                       1);
        };

        table.beginRow();
        table.cell(std::string(sim::appName(id)));
        for (auto kind : {sim::ModelSpec::Kind::SSBR,
                          sim::ModelSpec::Kind::DS}) {
            for (core::ConsistencyModel model :
                 {core::ConsistencyModel::SC, core::ConsistencyModel::PC,
                  core::ConsistencyModel::WO,
                  core::ConsistencyModel::RC}) {
                sim::ModelSpec spec = kind == sim::ModelSpec::Kind::SSBR
                    ? sim::ModelSpec::ssbr(model)
                    : sim::ModelSpec::ds(model, 64);
                core::RunResult r = sim::runModel(view, spec);
                table.cell(norm(r.cycles));
            }
        }
        table.endRow();
    }

    std::printf("%s\n", table.toString().c_str());
    std::printf("Expected: SC >= PC >= WO >= RC everywhere; WO ~= RC "
                "except on lock/event-heavy applications\n"
                "(PTHOR, LU) where release fences serialize against "
                "following accesses.\n");
    return 0;
}
