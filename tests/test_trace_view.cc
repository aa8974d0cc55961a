/**
 * @file
 * TraceView correctness: exact round-trip of the SoA decode, and
 * randomized bit-identical equivalence of every view-based timing
 * loop against the retained reference implementations, across all
 * four consistency models, window sizes, and the ablation flags. The
 * static and BASE loops are also timed from a multi-chunk ChunkedView.
 */

#include <utility>

#include <gtest/gtest.h>

#include "core/base_processor.h"
#include "core/dynamic_processor.h"
#include "core/static_processor.h"
#include "random_trace.h"
#include "sim/experiment.h"
#include "trace/chunked_view.h"
#include "trace/trace_view.h"

using namespace dsmem;

namespace {

const core::ConsistencyModel kModels[] = {
    core::ConsistencyModel::SC, core::ConsistencyModel::PC,
    core::ConsistencyModel::WO, core::ConsistencyModel::RC};

/**
 * A trace spanning three chunks: timed from a ChunkedView, some of its
 * pending loads have their consumer in the next tile.
 */
constexpr size_t kMultiTileInstrs =
    2 * trace::ChunkedView::kChunkInstrs + 555;

void
expectSameHistogram(const stats::Histogram &a, const stats::Histogram &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    ASSERT_EQ(a.numBuckets(), b.numBuckets());
    for (size_t i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), b.bucketCount(i));
    EXPECT_EQ(a.overflowCount(), b.overflowCount());
}

void
expectSameDynamic(const core::DynamicResult &ref,
                  const core::DynamicResult &opt)
{
    EXPECT_EQ(static_cast<const core::RunResult &>(ref),
              static_cast<const core::RunResult &>(opt));
    EXPECT_EQ(ref.avg_window_occupancy, opt.avg_window_occupancy);
    expectSameHistogram(ref.read_issue_delay, opt.read_issue_delay);
}

TEST(TraceView, MaterializeRoundTrips)
{
    trace::Trace t = dsmem::testing::randomTrace(7, 2000);
    trace::TraceView view(t);
    ASSERT_EQ(view.size(), t.size());
    EXPECT_EQ(view.name(), t.name());
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(view.materialize(i), t[i]) << "instruction " << i;
}

TEST(TraceView, FlagsMatchOpPredicates)
{
    trace::Trace t = dsmem::testing::randomTrace(11, 2000);
    trace::TraceView view(t);
    for (size_t i = 0; i < t.size(); ++i) {
        const trace::TraceInst &inst = t[i];
        EXPECT_EQ(view.op(i), inst.op);
        EXPECT_EQ(view.fu(i), trace::fuClass(inst.op));
        EXPECT_EQ(view.isMiss(i), inst.isMiss());
        EXPECT_EQ(view.isSync(i), trace::isSync(inst.op));
        EXPECT_EQ(view.isAcquire(i), trace::isAcquire(inst.op));
        EXPECT_EQ(view.isRelease(i), trace::isRelease(inst.op));
        EXPECT_EQ(view.isCompute(i), trace::isCompute(inst.op));
        EXPECT_EQ(view.producesValue(i),
                  trace::producesValue(inst.op));
        EXPECT_EQ(view.taken(i), inst.taken);
        EXPECT_EQ(view.latency(i), inst.latency);
        EXPECT_EQ(view.addr(i), inst.addr);
        EXPECT_EQ(view.aux(i), inst.aux);
    }
}

TEST(TraceView, EmptyTrace)
{
    trace::Trace t("empty");
    trace::TraceView view(t);
    EXPECT_EQ(view.size(), 0u);
    EXPECT_TRUE(view.empty());
    EXPECT_EQ(core::BaseProcessor().run(view).cycles, 0u);
}

TEST(DynamicEquivalence, ModelsAndWindows)
{
    for (uint64_t seed : {1u, 2u, 3u}) {
        trace::Trace t = dsmem::testing::randomTrace(seed, 4000);
        trace::TraceView view(t);
        for (core::ConsistencyModel model : kModels) {
            for (uint32_t window : {16u, 64u, 256u}) {
                core::DynamicConfig config;
                config.model = model;
                config.window = window;
                core::DynamicProcessor proc(config);
                expectSameDynamic(proc.runReference(t),
                                  proc.run(view));
            }
        }
    }
}

TEST(DynamicEquivalence, FreeWindow)
{
    trace::Trace t = dsmem::testing::randomTrace(17, 4000);
    trace::TraceView view(t);
    for (core::ConsistencyModel model : kModels) {
        core::DynamicConfig config;
        config.model = model;
        config.window = 64;
        config.free_window = true;
        core::DynamicProcessor proc(config);
        expectSameDynamic(proc.runReference(t), proc.run(view));
    }
}

TEST(DynamicEquivalence, FiniteMshrs)
{
    trace::Trace t = dsmem::testing::randomTrace(19, 4000);
    trace::TraceView view(t);
    for (uint32_t mshrs : {1u, 4u}) {
        core::DynamicConfig config;
        config.model = core::ConsistencyModel::RC;
        config.window = 64;
        config.mshrs = mshrs;
        core::DynamicProcessor proc(config);
        expectSameDynamic(proc.runReference(t), proc.run(view));
    }
}

TEST(DynamicEquivalence, ScSpeculation)
{
    trace::Trace t = dsmem::testing::randomTrace(23, 4000);
    trace::TraceView view(t);
    core::DynamicConfig config;
    config.model = core::ConsistencyModel::SC;
    config.window = 64;
    config.sc_speculation = true;
    core::DynamicProcessor proc(config);
    expectSameDynamic(proc.runReference(t), proc.run(view));
}

TEST(DynamicEquivalence, MultiIssueAndAblations)
{
    trace::Trace t = dsmem::testing::randomTrace(29, 4000);
    trace::TraceView view(t);
    for (bool perfect_bp : {false, true}) {
        for (bool ignore_deps : {false, true}) {
            core::DynamicConfig config;
            config.model = core::ConsistencyModel::RC;
            config.window = 64;
            config.width = 4;
            config.btb.perfect = perfect_bp;
            config.ignore_data_deps = ignore_deps;
            core::DynamicProcessor proc(config);
            expectSameDynamic(proc.runReference(t), proc.run(view));
        }
    }
}

TEST(DynamicEquivalence, ReadDelayHistogram)
{
    trace::Trace t = dsmem::testing::randomTrace(31, 4000);
    trace::TraceView view(t);
    core::DynamicConfig config;
    config.model = core::ConsistencyModel::RC;
    config.window = 64;
    config.collect_read_delay = true;
    core::DynamicProcessor proc(config);
    core::DynamicResult ref = proc.runReference(t);
    ASSERT_GT(ref.read_issue_delay.count(), 0u);
    expectSameDynamic(ref, proc.run(view));
}

TEST(DynamicEquivalence, LongTraceExercisesReclamation)
{
    // Long enough that the ring allocators wrap their spans many
    // times and reclaim dead cycle cells.
    trace::Trace t = dsmem::testing::randomTrace(37, 60000);
    trace::TraceView view(t);
    core::DynamicConfig config;
    config.model = core::ConsistencyModel::RC;
    config.window = 256;
    core::DynamicProcessor proc(config);
    expectSameDynamic(proc.runReference(t), proc.run(view));
}

TEST(StaticEquivalence, ModelsBlockingAndNonblocking)
{
    for (auto [seed, n] : {std::pair<uint64_t, size_t>{41, 4000},
                           {43, 4000}, {59, kMultiTileInstrs}}) {
        trace::Trace t = dsmem::testing::randomTrace(seed, n);
        trace::TraceView view(t);
        trace::ChunkedView chunked(view);
        for (core::ConsistencyModel model : kModels) {
            for (bool nonblocking : {false, true}) {
                core::StaticConfig config;
                config.model = model;
                config.nonblocking_reads = nonblocking;
                core::StaticProcessor proc(config);
                core::RunResult ref = proc.runReference(t);
                EXPECT_EQ(ref, proc.run(view))
                    << "n " << n << " model "
                    << core::consistencyName(model) << " nonblocking "
                    << nonblocking;
                EXPECT_EQ(ref, proc.run(chunked))
                    << "chunked n " << n << " model "
                    << core::consistencyName(model) << " nonblocking "
                    << nonblocking;
            }
        }
    }
}

TEST(StaticEquivalence, ShallowBuffers)
{
    for (auto [seed, n] : {std::pair<uint64_t, size_t>{47, 4000},
                           {61, kMultiTileInstrs}}) {
        trace::Trace t = dsmem::testing::randomTrace(seed, n);
        trace::TraceView view(t);
        trace::ChunkedView chunked(view);
        core::StaticConfig config;
        config.model = core::ConsistencyModel::RC;
        config.nonblocking_reads = true;
        config.write_buffer_depth = 2;
        config.read_buffer_depth = 2;
        core::StaticProcessor proc(config);
        core::RunResult ref = proc.runReference(t);
        EXPECT_EQ(ref, proc.run(view)) << "n " << n;
        EXPECT_EQ(ref, proc.run(chunked)) << "chunked n " << n;
    }
}

TEST(BaseEquivalence, ViewMatchesTrace)
{
    for (auto [seed, n] : {std::pair<uint64_t, size_t>{53, 4000},
                           {67, kMultiTileInstrs}}) {
        trace::Trace t = dsmem::testing::randomTrace(seed, n);
        trace::TraceView view(t);
        trace::ChunkedView chunked(view);
        core::BaseProcessor proc;
        core::RunResult ref = proc.run(t);
        EXPECT_EQ(ref, proc.run(view)) << "n " << n;
        EXPECT_EQ(ref, proc.run(chunked)) << "chunked n " << n;
    }
}

TEST(RunModelEquivalence, ViewOverloadMatchesTraceOverload)
{
    trace::Trace t = dsmem::testing::randomTrace(67, 4000);
    trace::TraceView view(t);
    std::vector<sim::ModelSpec> specs = sim::figure3Columns();
    std::vector<sim::LabelledResult> ref = sim::runModels(t, specs);
    std::vector<sim::LabelledResult> opt = sim::runModels(view, specs);
    ASSERT_EQ(ref.size(), opt.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i].label, opt[i].label);
        EXPECT_EQ(ref[i].result, opt[i].result) << ref[i].label;
    }
}

} // namespace
