/**
 * @file
 * Reproduces the Section 4.1.3 read-miss issue-delay analysis: the
 * distribution of cycles between a read miss entering the reorder
 * buffer (decode) and its issue to memory, at window 64 with perfect
 * branch prediction under RC.
 *
 * Paper claims: LU and OCEAN read misses are rarely delayed more
 * than 10 cycles (independent misses); ~15% of MP3D's and >20% of
 * LOCUS's misses are delayed over 40 cycles (address-dependent miss
 * chains); ~50% of PTHOR's are delayed over 50 cycles (dependence
 * chains of multiple misses).
 */

#include <cstdio>

#include "bench_args.h"
#include "core/dynamic_processor.h"
#include "runner/trace_store.h"
#include "sim/trace_bundle.h"

using namespace dsmem;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    bool small = args.small;

    std::printf("Section 4.1.3: read-miss decode-to-issue delay, "
                "RC DS-64 with perfect branch prediction\n\n");

    runner::TraceStore store(args.trace_dir);
    for (sim::AppId id : sim::kAllApps) {
        const sim::ViewBundle &bundle =
            store.getView(id, memsys::MemoryConfig{}, small);

        core::DynamicConfig config;
        config.model = core::ConsistencyModel::RC;
        config.window = 64;
        config.btb.perfect = true;
        config.collect_read_delay = true;
        core::DynamicResult r =
            core::DynamicProcessor(config).run(*bundle.flatView());

        const stats::Histogram &h = r.read_issue_delay;
        std::printf("%-6s read misses=%llu  mean delay=%.1f  "
                    ">10cy=%.1f%%  >40cy=%.1f%%  >50cy=%.1f%%\n",
                    sim::appName(id).data(),
                    static_cast<unsigned long long>(h.count()),
                    h.mean(), 100.0 * h.fractionAbove(10),
                    100.0 * h.fractionAbove(40),
                    100.0 * h.fractionAbove(50));
        std::printf("%s\n", h.toString("  delay histogram").c_str());
    }

    std::printf("Paper claims: LU/OCEAN rarely >10; MP3D ~15%% >40; "
                "LOCUS >20%% >40; PTHOR ~50%% >50.\n");
    return 0;
}
