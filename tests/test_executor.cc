/**
 * @file
 * Equivalence and planning tests for the zero-allocation phase-2
 * executor: fused window sweeps must be bit-identical to single-cell
 * runs (cycles, breakdowns, read-delay histograms), contexts must be
 * reusable across differently-sized consecutive cells without state
 * bleed, and the campaign scheduler's plan must cover every pending
 * row exactly once under any lane cap.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/dynamic_processor.h"
#include "core/sim_context.h"
#include "core/static_processor.h"
#include "random_trace.h"
#include "runner/campaign.h"
#include "runner/runner.h"
#include "sim/app_registry.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/trace_bundle.h"
#include "trace/chunked_view.h"
#include "trace/trace_stats.h"
#include "trace/trace_view.h"
#include "util/simd.h"

namespace dsmem {
namespace {

using core::ConsistencyModel;
using core::DynamicConfig;
using core::DynamicProcessor;
using core::DynamicResult;
using core::RunResult;
using core::SimContext;
using core::StaticConfig;
using core::StaticProcessor;
using sim::ExecGroup;
using sim::ModelSpec;

/** Histograms have no operator==; compare every observable. */
void
expectSameHistogram(const stats::Histogram &a, const stats::Histogram &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    EXPECT_EQ(a.overflowCount(), b.overflowCount());
    ASSERT_EQ(a.numBuckets(), b.numBuckets());
    for (size_t i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), b.bucketCount(i));
}

void
expectSameDynamicResult(const DynamicResult &a, const DynamicResult &b)
{
    EXPECT_EQ(static_cast<const RunResult &>(a),
              static_cast<const RunResult &>(b));
    EXPECT_EQ(a.avg_window_occupancy, b.avg_window_occupancy);
    expectSameHistogram(a.read_issue_delay, b.read_issue_delay);
}

/**
 * Every config variant the sweep must reproduce: all four models,
 * free-window, MSHR limits, shallow store buffers, SC speculation,
 * multi-issue, perfect prediction, ignored dependences, and the
 * read-delay histogram collector.
 */
std::vector<DynamicConfig>
variantConfigs()
{
    std::vector<DynamicConfig> configs;
    for (ConsistencyModel m :
         {ConsistencyModel::SC, ConsistencyModel::PC,
          ConsistencyModel::WO, ConsistencyModel::RC}) {
        DynamicConfig c;
        c.model = m;
        c.window = 64;
        configs.push_back(c);
    }
    DynamicConfig c;
    c.model = ConsistencyModel::RC;
    c.window = 32;
    c.free_window = true;
    configs.push_back(c);
    c = DynamicConfig{};
    c.model = ConsistencyModel::RC;
    c.window = 128;
    c.mshrs = 2;
    configs.push_back(c);
    c = DynamicConfig{};
    c.model = ConsistencyModel::PC;
    c.window = 16;
    c.store_buffer_depth = 4;
    configs.push_back(c);
    c = DynamicConfig{};
    c.model = ConsistencyModel::SC;
    c.window = 64;
    c.sc_speculation = true;
    configs.push_back(c);
    c = DynamicConfig{};
    c.model = ConsistencyModel::RC;
    c.window = 256;
    c.width = 4;
    configs.push_back(c);
    c = DynamicConfig{};
    c.model = ConsistencyModel::RC;
    c.window = 64;
    c.perfect_branch_prediction = true;
    c.ignore_data_deps = true;
    configs.push_back(c);
    c = DynamicConfig{};
    c.model = ConsistencyModel::RC;
    c.window = 64;
    c.collect_read_delay = true;
    configs.push_back(c);
    return configs;
}

// --- Fused sweep is bit-identical to single-cell runs ---------------

TEST(Executor, FusedSweepMatchesSingleCellRuns)
{
    for (uint64_t seed : {1u, 7u, 42u}) {
        trace::TraceView view(testing::randomTrace(seed, 4000));
        std::vector<DynamicConfig> configs = variantConfigs();

        std::vector<DynamicResult> single;
        for (const DynamicConfig &cfg : configs)
            single.push_back(DynamicProcessor(cfg).run(view));

        SimContext ctx;
        std::vector<DynamicResult> fused =
            core::runDynamicSweep(view, configs, ctx);

        ASSERT_EQ(fused.size(), single.size());
        for (size_t i = 0; i < fused.size(); ++i) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " config " +
                         std::to_string(i));
            expectSameDynamicResult(fused[i], single[i]);
        }
    }
}

// --- Context reuse across differently-sized cells -------------------

TEST(Executor, ContextReuseHasNoStateBleed)
{
    trace::TraceView view(testing::randomTrace(99, 5000));

    // Deliberately shrink and regrow between cells: big DS window,
    // tiny DS window, static cells, then big again. Each run through
    // the shared context must match a fresh-context run.
    std::vector<DynamicConfig> ds_cells;
    for (uint32_t w : {256u, 16u, 64u, 256u, 32u}) {
        DynamicConfig c;
        c.model = ConsistencyModel::RC;
        c.window = w;
        c.collect_read_delay = (w == 64);
        ds_cells.push_back(c);
    }

    SimContext shared;
    for (size_t i = 0; i < ds_cells.size(); ++i) {
        SCOPED_TRACE("ds cell " + std::to_string(i));
        DynamicResult reused =
            DynamicProcessor(ds_cells[i]).run(view, shared);
        DynamicResult fresh = DynamicProcessor(ds_cells[i]).run(view);
        expectSameDynamicResult(reused, fresh);

        // Interleave a static cell through the same context.
        StaticConfig sc;
        sc.model = ConsistencyModel::PC;
        sc.nonblocking_reads = (i % 2) == 0;
        StaticProcessor sp(sc);
        EXPECT_EQ(sp.run(view, shared), sp.run(view));
    }

    // A fused sweep through the already-used context also matches.
    std::vector<DynamicResult> fused =
        core::runDynamicSweep(view, ds_cells, shared);
    for (size_t i = 0; i < ds_cells.size(); ++i) {
        SCOPED_TRACE("fused cell " + std::to_string(i));
        expectSameDynamicResult(fused[i],
                                DynamicProcessor(ds_cells[i]).run(view));
    }
}

TEST(Executor, RunModelWithSharedContextMatchesFresh)
{
    trace::TraceView view(testing::randomTrace(5, 3000));
    std::vector<ModelSpec> specs = sim::figure3Columns();

    SimContext shared;
    for (const ModelSpec &spec : specs) {
        SCOPED_TRACE(spec.label());
        SimContext fresh;
        EXPECT_EQ(sim::runModel(view, spec, shared),
                  sim::runModel(view, spec, fresh));
    }
}

// --- Planner properties ---------------------------------------------

std::vector<ModelSpec>
combinedSpecs()
{
    std::vector<ModelSpec> specs = sim::figure3Columns();
    std::vector<ModelSpec> f4 = sim::figure4Columns();
    specs.insert(specs.end(), f4.begin(), f4.end());
    return specs;
}

/** Each pending row appears in exactly one group. */
void
expectExactCover(const std::vector<ExecGroup> &groups,
                 const std::vector<ModelSpec> &specs,
                 const std::vector<uint8_t> &done)
{
    std::set<size_t> seen;
    for (const ExecGroup &g : groups) {
        EXPECT_FALSE(g.rows.empty());
        for (size_t s : g.rows) {
            EXPECT_LT(s, specs.size());
            EXPECT_TRUE(seen.insert(s).second) << "row " << s << " twice";
        }
    }
    for (size_t s = 0; s < specs.size(); ++s) {
        bool pending = s >= done.size() || !done[s];
        EXPECT_EQ(seen.count(s), pending ? 1u : 0u) << "row " << s;
    }
}

TEST(Executor, PlanCoversPendingRowsExactlyOnce)
{
    std::vector<ModelSpec> specs = combinedSpecs();
    for (size_t cap : {0u, 1u, 2u, 3u, 5u, 100u}) {
        SCOPED_TRACE("lane cap " + std::to_string(cap));
        std::vector<uint8_t> done(specs.size(), 0);
        expectExactCover(sim::planPhase2(specs, done, cap), specs, done);

        // Mark an arbitrary subset done; the plan must skip them.
        for (size_t s = 0; s < specs.size(); s += 3)
            done[s] = 1;
        expectExactCover(sim::planPhase2(specs, done, cap), specs, done);
    }
}

TEST(Executor, PlanRespectsLaneCapAndFusesOnlyDynamicRows)
{
    std::vector<ModelSpec> specs = combinedSpecs();
    std::vector<uint8_t> done(specs.size(), 0);
    for (size_t cap : {0u, 1u, 2u, 3u, 4u}) {
        for (const ExecGroup &g : sim::planPhase2(specs, done, cap)) {
            if (cap != 0) {
                EXPECT_LE(g.rows.size(), cap);
            }
            EXPECT_EQ(g.fused, g.rows.size() > 1);
            if (g.rows.size() > 1) {
                for (size_t s : g.rows)
                    EXPECT_EQ(specs[s].kind, ModelSpec::Kind::DS);
            }
            if (cap == 1) {
                EXPECT_FALSE(g.fused);
            }
        }
    }
}

TEST(Executor, PlanOrdersGroupsLongestFirst)
{
    std::vector<ModelSpec> specs = combinedSpecs();
    std::vector<uint8_t> done(specs.size(), 0);
    std::vector<ExecGroup> groups = sim::planPhase2(specs, done, 0);
    for (size_t i = 1; i < groups.size(); ++i)
        EXPECT_GE(groups[i - 1].cost, groups[i].cost);
}

TEST(Executor, AdaptiveLaneCap)
{
    // A lone worker fuses without limit; parallel runs split sweeps
    // so every worker stays busy (at least two groups per worker).
    EXPECT_EQ(sim::adaptiveLaneCap(17, 0), 0u);
    EXPECT_EQ(sim::adaptiveLaneCap(17, 1), 0u);
    EXPECT_EQ(sim::adaptiveLaneCap(40, 4), 5u);
    EXPECT_EQ(sim::adaptiveLaneCap(17, 4), 3u);
    EXPECT_EQ(sim::adaptiveLaneCap(1, 8), 2u);  // Floor: never cap at 1.
    EXPECT_EQ(sim::adaptiveLaneCap(0, 8), 2u);
}

// --- runGroup delegates to the same paths ---------------------------

TEST(Executor, RunGroupMatchesPerRowRunModel)
{
    trace::TraceView view(testing::randomTrace(11, 3000));
    std::vector<ModelSpec> specs = combinedSpecs();
    std::vector<uint8_t> done(specs.size(), 0);

    SimContext ctx;
    for (const ExecGroup &g : sim::planPhase2(specs, done, 0)) {
        std::vector<RunResult> rows = sim::runGroup(view, specs, g, ctx);
        ASSERT_EQ(rows.size(), g.rows.size());
        for (size_t i = 0; i < g.rows.size(); ++i) {
            SCOPED_TRACE(specs[g.rows[i]].label());
            SimContext fresh;
            EXPECT_EQ(rows[i],
                      sim::runModel(view, specs[g.rows[i]], fresh));
        }
    }
}

// --- End to end: campaign results are fuse-invariant ----------------

/** Fused and unfused campaigns agree, and a chunk-resident trace
 *  (stream_exec On) reproduces the flat trace's rows. */
TEST(Executor, CampaignFusedMatchesUnfused)
{
    runner::RunnerOptions unfused_opts;
    unfused_opts.jobs = 2;
    unfused_opts.trace_dir.clear(); // No persistent store in tests.
    unfused_opts.fuse_sweeps = false;
    unfused_opts.stream_exec = sim::StreamExec::Off;
    runner::Campaign unfused("executor_eq", unfused_opts);
    unfused.add(sim::AppId::LU, combinedSpecs(), memsys::MemoryConfig{},
                /*small=*/true);
    unfused.run();
    ASSERT_TRUE(unfused.ok());
    const runner::UnitResult &b = unfused.result(0);

    for (sim::StreamExec mode : {sim::StreamExec::Off, sim::StreamExec::On}) {
        SCOPED_TRACE(sim::streamExecName(mode));
        runner::RunnerOptions fused_opts = unfused_opts;
        fused_opts.fuse_sweeps = true;
        fused_opts.stream_exec = mode;
        runner::Campaign fused("executor_eq", fused_opts);
        fused.add(sim::AppId::LU, combinedSpecs(), memsys::MemoryConfig{},
                  /*small=*/true);
        fused.run();
        ASSERT_TRUE(fused.ok());

        const runner::UnitResult &a = fused.result(0);
        ASSERT_EQ(a.rows.size(), b.rows.size());
        for (size_t s = 0; s < a.rows.size(); ++s) {
            SCOPED_TRACE(a.rows[s].label);
            EXPECT_EQ(a.rows[s].label, b.rows[s].label);
            EXPECT_EQ(a.rows[s].result, b.rows[s].result);
        }
    }
}

// --- Struct-of-lanes executor ---------------------------------------

/** A window-sweep family the SoL path accepts: one model/width, @p k
 *  ascending windows (deliberately not multiples of the batch). */
std::vector<DynamicConfig>
solFamily(size_t k, ConsistencyModel m, uint32_t width)
{
    std::vector<DynamicConfig> configs;
    uint32_t w = width >= 4 ? 16 : 8;
    for (size_t j = 0; j < k; ++j) {
        DynamicConfig c;
        c.model = m;
        c.window = w;
        c.width = width;
        configs.push_back(c);
        w = w * 2 > 256 ? w + 24 : w * 2;
    }
    return configs;
}

/**
 * Every SoL mode must be bit-identical to per-cell runs, for every
 * lane-count tail against the 4-wide batch (k = 1..5, 8), both
 * narrow and multi-issue widths, and models with and without active
 * consistency gates. The random trace carries sync ops (per-lane
 * fallback), branch mispredict squashes, store forwarding, and read
 * misses mid-block.
 */
TEST(Executor, SolSweepAllModesMatchPerCellRuns)
{
    trace::TraceView view(testing::randomTrace(21, 4000));
    for (ConsistencyModel m :
         {ConsistencyModel::SC, ConsistencyModel::RC}) {
        for (uint32_t width : {1u, 4u}) {
            for (size_t k : {size_t{1}, size_t{2}, size_t{3},
                             size_t{4}, size_t{5}, size_t{8}}) {
                std::vector<DynamicConfig> configs =
                    solFamily(k, m, width);
                ASSERT_TRUE(core::solSweepSupported(configs));

                std::vector<DynamicResult> single;
                for (const DynamicConfig &cfg : configs)
                    single.push_back(DynamicProcessor(cfg).run(view));

                SimContext ctx;
                for (core::SweepMode mode :
                     {core::SweepMode::SoL, core::SweepMode::SoLScalar,
                      core::SweepMode::PerLaneTiled,
                      core::SweepMode::Auto}) {
                    std::vector<DynamicResult> swept =
                        core::runDynamicSweep(view, configs, ctx, mode);
                    ASSERT_EQ(swept.size(), single.size());
                    for (size_t i = 0; i < swept.size(); ++i) {
                        SCOPED_TRACE(
                            "model " + std::to_string(int(m)) +
                            " width " + std::to_string(width) + " k " +
                            std::to_string(k) + " mode " +
                            std::to_string(int(mode)) + " lane " +
                            std::to_string(i));
                        expectSameDynamicResult(swept[i], single[i]);
                    }
                }
            }
        }
    }
}

TEST(Executor, SolSweepSupportGate)
{
    // The mixed variant set (free_window, MSHRs, SC speculation,
    // differing widths/models) is not lockstep-runnable...
    std::vector<DynamicConfig> mixed = variantConfigs();
    EXPECT_FALSE(core::solSweepSupported(mixed));
    trace::TraceView view(testing::randomTrace(3, 500));
    SimContext ctx;
    EXPECT_THROW(
        core::runDynamicSweep(view, mixed, ctx, core::SweepMode::SoL),
        std::invalid_argument);
    // ...but a window/store-buffer-only family is, even with uniform
    // non-default knobs.
    std::vector<DynamicConfig> fam =
        solFamily(3, ConsistencyModel::PC, 4);
    fam[1].store_buffer_depth = 4;
    for (DynamicConfig &c : fam) {
        c.perfect_branch_prediction = true;
        c.ignore_data_deps = true;
    }
    EXPECT_TRUE(core::solSweepSupported(fam));
    std::vector<DynamicResult> swept =
        core::runDynamicSweep(view, fam, ctx, core::SweepMode::SoL);
    for (size_t i = 0; i < fam.size(); ++i)
        expectSameDynamicResult(swept[i],
                                DynamicProcessor(fam[i]).run(view));
}

/** One context must serve SoL, forced-scalar SoL, tiled, and
 *  single-cell runs back to back with no state bleed. */
TEST(Executor, SolContextReuseAcrossModes)
{
    trace::TraceView view(testing::randomTrace(17, 3000));
    std::vector<DynamicConfig> fam =
        solFamily(4, ConsistencyModel::RC, 1);

    std::vector<DynamicResult> single;
    for (const DynamicConfig &cfg : fam)
        single.push_back(DynamicProcessor(cfg).run(view));

    SimContext shared;
    for (core::SweepMode mode :
         {core::SweepMode::SoL, core::SweepMode::PerLaneTiled,
          core::SweepMode::SoLScalar, core::SweepMode::SoL}) {
        std::vector<DynamicResult> swept =
            core::runDynamicSweep(view, fam, shared, mode);
        for (size_t i = 0; i < fam.size(); ++i) {
            SCOPED_TRACE("mode " + std::to_string(int(mode)) +
                         " lane " + std::to_string(i));
            expectSameDynamicResult(swept[i], single[i]);
        }
        // Interleave a single-cell run through lane 0.
        expectSameDynamicResult(
            DynamicProcessor(fam[2]).run(view, shared), single[2]);
    }
}

/** The runtime forced-scalar switch reroutes Auto; results do not
 *  change. */
TEST(Executor, SolForcedScalarRuntimeSwitch)
{
    trace::TraceView view(testing::randomTrace(29, 2000));
    std::vector<DynamicConfig> fam =
        solFamily(3, ConsistencyModel::SC, 1);
    SimContext ctx;
    std::vector<DynamicResult> simd =
        core::runDynamicSweep(view, fam, ctx);
    util::simd::setForceScalar(true);
    std::vector<DynamicResult> scalar =
        core::runDynamicSweep(view, fam, ctx);
    util::simd::setForceScalar(false);
    ASSERT_EQ(simd.size(), scalar.size());
    for (size_t i = 0; i < simd.size(); ++i)
        expectSameDynamicResult(simd[i], scalar[i]);
}

// --- SimContext rebind avoids re-zeroing warm rings -----------------

TEST(Executor, RingRebindSkipsZeroFill)
{
    trace::TraceView view(testing::randomTrace(13, 1000));
    DynamicConfig c;
    c.model = ConsistencyModel::RC;
    c.window = 256; // sb_depth defaults to the window
    SimContext ctx;

    DynamicProcessor p(c);
    DynamicResult first = p.run(view, ctx);
    uint64_t after_first = ctx.lane(0).rebind_bytes_skipped;

    DynamicResult second = p.run(view, ctx);
    uint64_t after_second = ctx.lane(0).rebind_bytes_skipped;

    // A warm rebind skips the whole assign(n, 0) the old scheme
    // performed: completion + retire rings (window each), decode ring
    // (width), store-buffer ring (window), MSHR ring (1 slot).
    const uint64_t warm_bytes =
        (uint64_t{c.window} * 3 + c.width + 1) * sizeof(uint64_t);
    EXPECT_EQ(after_second - after_first, warm_bytes);
    expectSameDynamicResult(second, first);

    // Shrinking then regrowing stays allocation- and zero-fill-free
    // once the high-water size is reached (grow-only rings).
    c.window = 16;
    DynamicProcessor(c).run(view, ctx);
    c.window = 256;
    DynamicProcessor(c).run(view, ctx);
    EXPECT_EQ(ctx.lane(0).rebind_bytes_skipped,
              after_second + (16ull * 3 + 1 + 1) * sizeof(uint64_t) +
                  warm_bytes);
}

// --- A chunked trace source is bit-identical to a flat one ----------

/** Multi-chunk random trace: the streamed sweeps must cross chunk
 *  boundaries mid-window, not just run inside one tile. */
trace::TraceView
multiChunkView(uint64_t seed)
{
    return trace::TraceView(testing::randomTrace(
        seed, 2 * trace::ChunkedView::kChunkInstrs + 1234));
}

/**
 * Every config variant — all four models, mixed windows, MSHR limits,
 * SC speculation, the read-delay collector — must produce the same
 * bits swept from a chunked source as through single-cell runs, with
 * decode inline and with the decode-ahead thread filling the tile
 * ring.
 */
TEST(Executor, StreamedSweepMatchesSingleCellRuns)
{
    trace::TraceView view = multiChunkView(61);
    trace::ChunkedView cv(view);
    std::vector<DynamicConfig> configs = variantConfigs();

    std::vector<DynamicResult> single;
    for (const DynamicConfig &cfg : configs)
        single.push_back(DynamicProcessor(cfg).run(view));

    SimContext ctx;
    for (int threads : {0, 1}) {
        for (core::SweepMode mode :
             {core::SweepMode::Auto, core::SweepMode::PerLaneTiled}) {
            core::StreamOptions opt;
            opt.decode_threads = threads;
            std::vector<DynamicResult> streamed = core::runDynamicSweep(
                core::TraceSource(cv, opt), configs, ctx, mode);
            ASSERT_EQ(streamed.size(), single.size());
            for (size_t i = 0; i < streamed.size(); ++i) {
                SCOPED_TRACE("threads " + std::to_string(threads) +
                             " mode " + std::to_string(int(mode)) +
                             " config " + std::to_string(i));
                expectSameDynamicResult(streamed[i], single[i]);
            }
        }
    }
}

/** The streamed struct-of-lanes modes (SIMD, forced-scalar batch,
 *  tiled, Auto) against per-cell runs, lane tails included. */
TEST(Executor, StreamedSolModesMatchPerCellRuns)
{
    trace::TraceView view = multiChunkView(67);
    trace::ChunkedView cv(view);
    for (ConsistencyModel m :
         {ConsistencyModel::SC, ConsistencyModel::RC}) {
        for (size_t k : {size_t{1}, size_t{3}, size_t{5}}) {
            std::vector<DynamicConfig> configs = solFamily(k, m, 1);
            ASSERT_TRUE(core::solSweepSupported(configs));

            std::vector<DynamicResult> single;
            for (const DynamicConfig &cfg : configs)
                single.push_back(DynamicProcessor(cfg).run(view));

            SimContext ctx;
            for (int threads : {0, 1}) {
                for (core::SweepMode mode :
                     {core::SweepMode::SoL, core::SweepMode::SoLScalar,
                      core::SweepMode::PerLaneTiled,
                      core::SweepMode::Auto}) {
                    core::StreamOptions opt;
                    opt.decode_threads = threads;
                    std::vector<DynamicResult> streamed =
                        core::runDynamicSweep(core::TraceSource(cv, opt),
                                              configs, ctx, mode);
                    ASSERT_EQ(streamed.size(), single.size());
                    for (size_t i = 0; i < streamed.size(); ++i) {
                        SCOPED_TRACE(
                            "model " + std::to_string(int(m)) + " k " +
                            std::to_string(k) + " threads " +
                            std::to_string(threads) + " mode " +
                            std::to_string(int(mode)) + " lane " +
                            std::to_string(i));
                        expectSameDynamicResult(streamed[i], single[i]);
                    }
                }
            }
        }
    }

    // The SoL support gate applies to a chunked source too.
    std::vector<DynamicConfig> mixed = variantConfigs();
    SimContext ctx;
    EXPECT_THROW(
        core::runDynamicSweep(cv, mixed, ctx, core::SweepMode::SoL),
        std::invalid_argument);
}

/** One context serves flat sweeps, streamed sweeps, and single-cell
 *  runs back to back with no state bleed. */
TEST(Executor, StreamedContextReuseAgainstFlat)
{
    trace::TraceView view = multiChunkView(71);
    trace::ChunkedView cv(view);
    std::vector<DynamicConfig> fam =
        solFamily(4, ConsistencyModel::RC, 1);

    std::vector<DynamicResult> single;
    for (const DynamicConfig &cfg : fam)
        single.push_back(DynamicProcessor(cfg).run(view));

    SimContext shared;
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        std::vector<DynamicResult> flat =
            core::runDynamicSweep(view, fam, shared);
        std::vector<DynamicResult> streamed =
            core::runDynamicSweep(cv, fam, shared);
        for (size_t i = 0; i < fam.size(); ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            expectSameDynamicResult(flat[i], single[i]);
            expectSameDynamicResult(streamed[i], single[i]);
        }
        // Interleave a single-cell run through lane 0.
        expectSameDynamicResult(
            DynamicProcessor(fam[1]).run(view, shared), single[1]);
    }
}

/** Forcing the scalar batch at runtime reroutes the streamed Auto
 *  path; results do not change. */
TEST(Executor, StreamedForcedScalarRuntimeSwitch)
{
    trace::TraceView view = multiChunkView(73);
    trace::ChunkedView cv(view);
    std::vector<DynamicConfig> fam =
        solFamily(3, ConsistencyModel::SC, 1);
    SimContext ctx;
    std::vector<DynamicResult> simd = core::runDynamicSweep(cv, fam, ctx);
    util::simd::setForceScalar(true);
    std::vector<DynamicResult> scalar =
        core::runDynamicSweep(cv, fam, ctx);
    util::simd::setForceScalar(false);
    ASSERT_EQ(simd.size(), scalar.size());
    for (size_t i = 0; i < simd.size(); ++i)
        expectSameDynamicResult(simd[i], scalar[i]);
}

/**
 * runGroup against a chunk-resident bundle must reproduce the flat
 * bundle's rows for every planned group: fused DS sweeps and DS
 * singletons stream, non-DS rows (which need first_use random access)
 * run against the memoized flatten.
 */
TEST(Executor, RunGroupChunkedBundleMatchesFlat)
{
    trace::Trace raw = testing::randomTrace(
        79, 2 * trace::ChunkedView::kChunkInstrs + 555);
    sim::ViewBundle flat;
    flat.view = trace::TraceView::build(raw);
    flat.stats = trace::computeStats(raw);
    flat.verified = true;
    sim::ViewBundle chunked = flat;
    chunked.view.reset();
    chunked.chunked =
        std::make_shared<trace::ChunkedView>(*flat.view);

    EXPECT_LT(chunked.traceBytesResident(),
              flat.traceBytesResident() / 2);

    std::vector<ModelSpec> specs = combinedSpecs();
    std::vector<uint8_t> done(specs.size(), 0);
    for (size_t cap : {size_t{0}, size_t{1}, size_t{3}}) {
        SimContext flat_ctx, chunked_ctx;
        for (const ExecGroup &g : sim::planPhase2(specs, done, cap)) {
            std::vector<RunResult> want =
                sim::runGroup(flat, specs, g, flat_ctx);
            std::vector<RunResult> got =
                sim::runGroup(chunked, specs, g, chunked_ctx);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < g.rows.size(); ++i) {
                SCOPED_TRACE("cap " + std::to_string(cap) + " " +
                             specs[g.rows[i]].label());
                EXPECT_EQ(got[i], want[i]);
            }
        }
    }
}

} // namespace
} // namespace dsmem
