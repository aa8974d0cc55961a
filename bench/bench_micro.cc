/**
 * @file
 * Component microbenchmarks (google-benchmark): throughput of the
 * simulator's building blocks — cache/coherence transactions, branch
 * prediction, the analytic dynamic-processor scheduler, the static
 * models, and end-to-end trace generation.
 */

#include <benchmark/benchmark.h>

#include "core/base_processor.h"
#include "core/branch_predictor.h"
#include "core/dynamic_processor.h"
#include "core/prefetcher.h"
#include "core/rescheduler.h"
#include "core/static_processor.h"
#include "memsys/memory_system.h"
#include "sim/trace_bundle.h"

using namespace dsmem;

namespace {

/** A reusable small LU trace (generated once). */
const trace::Trace &
smallTrace()
{
    static const sim::TraceBundle bundle =
        sim::generateTrace(sim::AppId::LU, memsys::MemoryConfig{},
                           /*small=*/true);
    return bundle.trace;
}

void
BM_CacheReadHit(benchmark::State &state)
{
    memsys::MemorySystem mem(16, memsys::CacheConfig{},
                             memsys::MemoryConfig{});
    mem.read(0, 0x2000);
    for (auto _ : state)
        benchmark::DoNotOptimize(mem.read(0, 0x2000));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_CacheCoherencePingPong(benchmark::State &state)
{
    memsys::MemorySystem mem(16, memsys::CacheConfig{},
                             memsys::MemoryConfig{});
    uint32_t proc = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.write(proc, 0x4000));
        proc = (proc + 1) & 15;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_BranchPredictor(benchmark::State &state)
{
    core::BranchPredictor predictor{core::BtbConfig{}};
    uint32_t site = 1;
    uint64_t n = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            predictor.predict(site, (n & 7) != 0));
        site = site * 1664525u + 1013904223u;
        site = 1 + (site & 1023);
        ++n;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_BaseProcessor(benchmark::State &state)
{
    const trace::Trace &trace = smallTrace();
    for (auto _ : state)
        benchmark::DoNotOptimize(core::BaseProcessor().run(trace));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * trace.size()));
}

void
BM_StaticProcessor(benchmark::State &state)
{
    const trace::Trace &trace = smallTrace();
    core::StaticConfig config;
    config.model = core::ConsistencyModel::RC;
    config.nonblocking_reads = state.range(0) != 0;
    core::StaticProcessor proc(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(proc.run(trace));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * trace.size()));
}

void
BM_DynamicProcessor(benchmark::State &state)
{
    const trace::Trace &trace = smallTrace();
    core::DynamicConfig config;
    config.model = core::ConsistencyModel::RC;
    config.window = static_cast<uint32_t>(state.range(0));
    core::DynamicProcessor proc(config);
    for (auto _ : state)
        benchmark::DoNotOptimize(proc.run(trace));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * trace.size()));
}

void
BM_TraceGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        sim::TraceBundle bundle = sim::generateTrace(
            sim::AppId::LU, memsys::MemoryConfig{}, /*small=*/true);
        benchmark::DoNotOptimize(bundle.trace.size());
    }
}

void
BM_Rescheduler(benchmark::State &state)
{
    const trace::TraceView view(smallTrace());
    core::RescheduleConfig config;
    config.cross_branches = true;
    config.exact_alias = true;
    for (auto _ : state) {
        trace::Trace out = core::rescheduleLoads(view, config);
        benchmark::DoNotOptimize(out.size());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * view.size()));
}

void
BM_StridePrefetcher(benchmark::State &state)
{
    const trace::TraceView view(smallTrace());
    for (auto _ : state) {
        trace::Trace out =
            core::applyStridePrefetcher(view, core::PrefetchConfig{});
        benchmark::DoNotOptimize(out.size());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * view.size()));
}

BENCHMARK(BM_CacheReadHit);
BENCHMARK(BM_CacheCoherencePingPong);
BENCHMARK(BM_BranchPredictor);
BENCHMARK(BM_BaseProcessor);
BENCHMARK(BM_StaticProcessor)->Arg(0)->Arg(1);
BENCHMARK(BM_DynamicProcessor)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Rescheduler);
BENCHMARK(BM_StridePrefetcher);

} // namespace

BENCHMARK_MAIN();
