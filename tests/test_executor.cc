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
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/base_processor.h"
#include "core/dynamic_processor.h"
#include "core/sim_context.h"
#include "core/sol_sweep.h"
#include "core/static_processor.h"
#include "file_backed.h"
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
    c.btb.perfect = true;
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

TEST(Executor, PlanRespectsLaneCapAndNeverMixesFamilies)
{
    std::vector<ModelSpec> specs = combinedSpecs();
    std::vector<uint8_t> done(specs.size(), 0);
    for (size_t cap : {0u, 1u, 2u, 3u, 4u}) {
        SCOPED_TRACE("lane cap " + std::to_string(cap));
        size_t static_groups = 0;
        for (const ExecGroup &g : sim::planPhase2(specs, done, cap)) {
            EXPECT_EQ(g.fused, g.rows.size() > 1);
            const bool ds =
                specs[g.rows.front()].kind == ModelSpec::Kind::DS;
            // A group is all DS rows (one sweep family) or all
            // static rows (one static sweep), never a mix.
            for (size_t s : g.rows)
                EXPECT_EQ(specs[s].kind == ModelSpec::Kind::DS, ds);
            static_groups += !ds;
            if (cap != 0 && ds) {
                EXPECT_LE(g.rows.size(), cap);
            }
            // A static group weighs no more than a full DS sweep.
            if (cap > 1 && !ds) {
                EXPECT_LE(g.cost, cap * 4);
            }
            if (cap == 1) {
                EXPECT_FALSE(g.fused);
            }
        }
        // Eight static rows (figure 3's seven and figure 4's BASE)
        // weigh 14: one sweep when unlimited, two groups of weight at
        // most 8 at cap 2.
        if (cap == 0) {
            EXPECT_EQ(static_groups, 1u);
        }
        if (cap == 2) {
            EXPECT_EQ(static_groups, 2u);
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
    // so every worker stays busy (at least two groups per worker),
    // and a cap spanning a batch is whole batches (40 / 8 = 5 -> 4).
    EXPECT_EQ(sim::adaptiveLaneCap(17, 0), 0u);
    EXPECT_EQ(sim::adaptiveLaneCap(17, 1), 0u);
    EXPECT_EQ(sim::adaptiveLaneCap(40, 4), 4u);
    EXPECT_EQ(sim::adaptiveLaneCap(80, 4), 8u);
    EXPECT_EQ(sim::adaptiveLaneCap(100, 4), 12u); // 13 -> 12.
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

/** A fused campaign reproduces per-cell runModel on the same trace,
 *  whether the trace stays flat (stream_exec Off) or chunk-resident
 *  (On). */
TEST(Executor, CampaignFusedMatchesUnfused)
{
    const std::vector<ModelSpec> specs = combinedSpecs();
    const sim::ViewBundle vb = sim::generateView(
        sim::AppId::LU, memsys::MemoryConfig{}, /*small=*/true);
    std::vector<RunResult> per_cell;
    for (const ModelSpec &spec : specs)
        per_cell.push_back(sim::runModel(*vb.flatView(), spec));

    for (sim::StreamExec mode : {sim::StreamExec::Off, sim::StreamExec::On}) {
        SCOPED_TRACE(sim::streamExecName(mode));
        runner::RunnerOptions opts;
        opts.jobs = 2;
        opts.trace_dir.clear(); // No persistent store in tests.
        opts.stream_exec = mode;
        runner::Campaign fused("executor_eq", opts);
        fused.add(sim::AppId::LU, specs, memsys::MemoryConfig{},
                  /*small=*/true);
        fused.run();
        ASSERT_TRUE(fused.ok());

        const runner::UnitResult &a = fused.result(0);
        ASSERT_EQ(a.rows.size(), specs.size());
        for (size_t s = 0; s < a.rows.size(); ++s) {
            SCOPED_TRACE(a.rows[s].label);
            EXPECT_EQ(a.rows[s].label, specs[s].label());
            EXPECT_EQ(a.rows[s].result, per_cell[s]);
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
 * Multi-chunk random trace: the streamed sweeps must cross chunk
 * boundaries mid-window, not just run inside one tile.
 */
trace::TraceView
multiChunkView(uint64_t seed,
               size_t n = 2 * trace::ChunkedView::kChunkInstrs + 1234)
{
    return trace::TraceView(testing::randomTrace(seed, n));
}

/**
 * Trace lengths a streamed test runs: its own length @p n, then the
 * last-chunk edge cases of the inline decoder — a one-instruction
 * trace, one exactly full chunk, and a full chunk followed by a
 * one-instruction last chunk.
 */
std::vector<size_t>
streamLengths(size_t n = 2 * trace::ChunkedView::kChunkInstrs + 1234)
{
    return {n, 1, trace::ChunkedView::kChunkInstrs,
            trace::ChunkedView::kChunkInstrs + 1};
}

/**
 * Both DS executors against per-cell DynamicProcessor::run on @p view,
 * lane by lane, from the flat view and from its chunked form:
 * runDynamicSweep (the vector SoL for a fused family where the build
 * and CPU have one, the tiled pass otherwise) and the tiled pass
 * itself. Every sweep borrows @p ctx, so context reuse across
 * executors and residencies is covered too.
 */
void
expectSweepsMatch(const trace::TraceView &view,
                  const std::vector<DynamicConfig> &configs,
                  const std::string &what, SimContext &ctx)
{
    std::vector<DynamicResult> single;
    for (const DynamicConfig &cfg : configs)
        single.push_back(DynamicProcessor(cfg).run(view));

    using Sweep = std::vector<DynamicResult> (*)(
        const core::TraceSource &, const std::vector<DynamicConfig> &,
        SimContext &);
    const std::pair<const char *, Sweep> sweeps[] = {
        {"runDynamicSweep", &core::runDynamicSweep},
        {"tiled", &core::detail::runTiledSweep},
    };
    const trace::ChunkedView cv(view);
    const std::pair<const char *, core::TraceSource> sources[] = {
        {"flat", view}, {"chunked", cv}};
    for (const auto &[source_name, src] : sources) {
        for (const auto &[sweep_name, sweep] : sweeps) {
            std::vector<DynamicResult> swept = sweep(src, configs, ctx);
            ASSERT_EQ(swept.size(), single.size());
            for (size_t i = 0; i < swept.size(); ++i) {
                SCOPED_TRACE(what + " " + source_name + " " +
                             sweep_name + " lane " + std::to_string(i));
                expectSameDynamicResult(swept[i], single[i]);
            }
        }
    }
}

/**
 * Both executors must be bit-identical to per-cell runs, for every
 * lane-count tail against the 4-wide batch (k = 1..5, 8), both
 * narrow and multi-issue widths, and models with and without active
 * consistency gates. The random trace carries sync ops (per-lane
 * fallback), branch mispredict squashes, store forwarding, and read
 * misses mid-block.
 */
TEST(Executor, SweepsMatchPerCellRuns)
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
                SimContext ctx;
                expectSweepsMatch(view, configs,
                                  "model " + std::to_string(int(m)) +
                                      " width " + std::to_string(width) +
                                      " k " + std::to_string(k),
                                  ctx);
            }
        }
    }
}

TEST(Executor, SolSweepSupportGate)
{
    // The mixed variant set (free_window, MSHRs, SC speculation,
    // differing widths) is not lockstep-runnable: the vector SoL
    // refuses it, flat or chunked, and runDynamicSweep runs it on the
    // tiled pass.
    std::vector<DynamicConfig> mixed = variantConfigs();
    EXPECT_FALSE(core::solSweepSupported(mixed));
    trace::TraceView view = multiChunkView(3);
    trace::ChunkedView cv(view);
    SimContext ctx;
    if (core::detail::solSimdRuntimeOk()) {
        EXPECT_THROW(core::detail::runSolSweepSimd(view, mixed, ctx),
                     std::invalid_argument);
        EXPECT_THROW(core::detail::runSolSweepSimd(cv, mixed, ctx),
                     std::invalid_argument);
    }
    expectSweepsMatch(view, mixed, "mixed", ctx);
    // ...but a window/store-buffer-only family is, even with uniform
    // non-default knobs.
    std::vector<DynamicConfig> fam =
        solFamily(3, ConsistencyModel::PC, 4);
    fam[1].store_buffer_depth = 4;
    for (DynamicConfig &c : fam) {
        c.btb.perfect = true;
        c.ignore_data_deps = true;
    }
    EXPECT_TRUE(core::solSweepSupported(fam));
    expectSweepsMatch(view, fam, "family", ctx);
}

/**
 * A cross-model family: SC, PC, WO and RC lanes at different windows
 * in one sweep, each model gating through its own per-lane masks.
 * Lane counts straddle the 4-wide batch (3, 5, 7 lanes).
 */
std::vector<DynamicConfig>
mixedModelFamily(size_t k)
{
    const ConsistencyModel models[] = {
        ConsistencyModel::SC, ConsistencyModel::RC,
        ConsistencyModel::PC, ConsistencyModel::WO};
    const uint32_t windows[] = {256, 16, 64, 32, 128, 8, 48};
    std::vector<DynamicConfig> configs;
    for (size_t j = 0; j < k; ++j) {
        DynamicConfig c;
        c.model = models[j % 4];
        c.window = windows[j % 7];
        configs.push_back(c);
    }
    return configs;
}

/** Mixed-model families of 3, 5 and 7 lanes over @p view. */
void
expectMixedFamilyMatches(const trace::TraceView &view,
                         const std::string &what)
{
    for (size_t k : {size_t{3}, size_t{5}, size_t{7}}) {
        std::vector<DynamicConfig> configs = mixedModelFamily(k);
        ASSERT_TRUE(core::solSweepSupported(configs));
        SimContext ctx;
        expectSweepsMatch(view, configs, what + " k " + std::to_string(k),
                          ctx);
    }
}

TEST(Executor, MixedModelSolMatchesPerCellRuns)
{
    for (uint64_t seed : {5u, 23u}) {
        expectMixedFamilyMatches(
            trace::TraceView(testing::randomTrace(seed, 4000)),
            "seed " + std::to_string(seed));
    }
    expectMixedFamilyMatches(multiChunkView(83), "multi-chunk");
}

TEST(Executor, MixedModelSolMatchesPerCellRunsOnAnApp)
{
    sim::TraceBundle lu = sim::generateTrace(sim::AppId::LU, {}, true);
    expectMixedFamilyMatches(trace::TraceView(lu.trace), "LU");
}

// --- State the SoL lanes share or keep lane-indexed ------------------

/** DS configs at every (model, window) pair, as sim::planPhase2 sees
 *  them. */
std::vector<DynamicConfig>
dsConfigs(std::initializer_list<ConsistencyModel> models,
          std::initializer_list<uint32_t> windows, uint32_t width = 1)
{
    std::vector<DynamicConfig> configs;
    for (ConsistencyModel m : models)
        for (uint32_t w : windows)
            configs.push_back(sim::dynamicConfigFor(
                ModelSpec::ds(m, w, false, false, width)));
    return configs;
}

/**
 * Lanes with different BTB geometries share a predictor only within a
 * geometry: each group predicts once per branch for its own lanes.
 * Thousands of branch sites make the 512-entry 2-way table miss
 * where the 2048-entry 4-way one hits, so the groups really differ.
 */
TEST(Executor, SolPredictsOncePerBtbGeometry)
{
    testing::RandomMix mix;
    mix.compute = 30;
    mix.branch = 30;
    mix.store = 10;
    mix.branch_sites = 4096;
    trace::TraceView view(testing::randomTrace(31, 12000, mix));

    core::BtbConfig big; // 2048 x 4, the paper's.
    core::BtbConfig small;
    small.entries = 512;
    small.associativity = 2;
    const struct {
        ConsistencyModel model;
        uint32_t window;
        core::BtbConfig btb;
    } lanes[] = {
        {ConsistencyModel::RC, 64, big},
        {ConsistencyModel::RC, 64, small},
        {ConsistencyModel::SC, 16, small},
        {ConsistencyModel::PC, 256, big},
        {ConsistencyModel::RC, 32, small},
        {ConsistencyModel::WO, 128, big},
    };
    std::vector<DynamicConfig> configs;
    for (const auto &l : lanes) {
        DynamicConfig c;
        c.model = l.model;
        c.window = l.window;
        c.btb = l.btb;
        configs.push_back(c);
    }
    ASSERT_LT(DynamicProcessor(configs[0]).run(view).mispredicts,
              DynamicProcessor(configs[1]).run(view).mispredicts);

    SimContext ctx;
    expectSweepsMatch(view, configs, "btb", ctx);
}

/**
 * The sweep's one forwarding table against per-lane tables, on
 * store-heavy traces under SC, PC and RC lanes at windows 16 to 256.
 * Over thousands of addresses with 200-cycle misses, far more stores
 * stay pending than the table's first capacity, so it prunes (an
 * address dead for every lane) and reuses rows many times. Over 64
 * addresses with 100-cycle misses, most loads find a pending store,
 * some performing the very cycle the load issues.
 */
TEST(Executor, SolSharedForwardingTableMatchesPerCellRuns)
{
    for (uint32_t addresses : {4096u, 64u}) {
        testing::RandomMix mix;
        mix.compute = 25;
        mix.load = 25;
        mix.store = 40;
        mix.branch = 5;
        mix.addresses = addresses;
        mix.miss_latency = addresses > 64 ? 200 : 100;
        const trace::Trace t = testing::randomTrace(
            addresses, 2 * trace::ChunkedView::kChunkInstrs + 777, mix);
        trace::TraceView view(t);
        const std::string what =
            std::to_string(addresses) + " addresses";

        const std::vector<DynamicConfig> configs =
            dsConfigs({ConsistencyModel::SC, ConsistencyModel::PC,
                       ConsistencyModel::RC},
                      {16, 64, 256});
        SimContext ctx;
        expectSweepsMatch(view, configs, what, ctx);
        if (addresses > 64 && core::detail::solSimdRuntimeOk()) {
            // Fewer rows than stored addresses: pruned rows were
            // reused.
            std::set<trace::Addr> stored;
            for (size_t i = 0; i < t.size(); ++i)
                if (t[i].op == trace::Op::STORE)
                    stored.insert(t[i].addr);
            const size_t kpad = (configs.size() + 3) / 4 * 4;
            EXPECT_LT(ctx.solScratch().fwd_rows.size() / (2 * kpad),
                      stored.size() / 2);
        }
    }
}

/**
 * Misses of 100+ cycles make requests below an allocator's top (a
 * younger instruction ready before an older one stalled on a miss)
 * and far above its watermark, so the FU bitmaps take the
 * out-of-line path and grow their windows; the dual integer ALU of
 * the 4-wide machine covers the capacity-2 map.
 */
TEST(Executor, SolLongMissesMatchPerCellRuns)
{
    for (uint32_t latency : {120u, 400u}) {
        testing::RandomMix mix;
        mix.miss_latency = latency;
        trace::TraceView view(testing::randomTrace(latency, 8000, mix));
        for (uint32_t width : {1u, 4u}) {
            SimContext ctx;
            expectSweepsMatch(
                view,
                dsConfigs({ConsistencyModel::SC, ConsistencyModel::RC},
                          {16, 32, 128, 256}, width),
                "latency " + std::to_string(latency) + " width " +
                    std::to_string(width),
                ctx);
            const size_t mem = static_cast<size_t>(trace::FuClass::MEM);
            if (latency == 400) {
                EXPECT_GT(ctx.lane(0).fu[mem].span(), 512u);
            }
        }
    }
}

TEST(Executor, SolSupportRejectsDivergentAblationsInMixedFamilies)
{
    // Mixing models alone is fine; each divergent ablation on any one
    // lane still takes the family off the lockstep path, as does a
    // differing width.
    std::vector<DynamicConfig> base = mixedModelFamily(4);
    EXPECT_TRUE(core::solSweepSupported(base));
    for (int ablation = 0; ablation < 5; ++ablation) {
        std::vector<DynamicConfig> fam = base;
        DynamicConfig &c = fam[2];
        switch (ablation) {
          case 0: c.free_window = true; break;
          case 1: c.sc_speculation = true; break;
          case 2: c.mshrs = 2; break;
          case 3: c.collect_read_delay = true; break;
          case 4: c.width = 4; break;
        }
        EXPECT_FALSE(core::solSweepSupported(fam)) << ablation;
    }
}

TEST(Executor, PlanFusesAllFigure3DsRowsIntoOneFamily)
{
    std::vector<ModelSpec> specs = sim::figure3Columns();
    std::vector<uint8_t> done(specs.size(), 0);
    size_t ds_rows = 0;
    for (const ModelSpec &s : specs)
        ds_rows += s.kind == ModelSpec::Kind::DS;
    EXPECT_EQ(ds_rows, 7u);
    size_t fused_groups = 0;
    for (const ExecGroup &g : sim::planPhase2(specs, done, 0)) {
        EXPECT_TRUE(g.fused);
        if (specs[g.rows[0]].kind != ModelSpec::Kind::DS) {
            // The seven static rows are the one static sweep.
            EXPECT_EQ(g.rows.size(), specs.size() - ds_rows);
            continue;
        }
        ++fused_groups;
        EXPECT_EQ(g.rows.size(), ds_rows);
        std::vector<core::DynamicConfig> configs;
        for (size_t s : g.rows)
            configs.push_back(sim::dynamicConfigFor(specs[s]));
        EXPECT_TRUE(core::solSweepSupported(configs));
    }
    EXPECT_EQ(fused_groups, 1u);
}

/** The plan fuses two DS specs iff the sweep can run them in lockstep:
 *  sim::planPhase2 and core::solSweepSupported share one rule. */
TEST(Executor, PlanFusesExactlyWhatTheSweepSupports)
{
    std::vector<ModelSpec> specs = sim::figure3Columns();
    for (const ModelSpec &s : sim::figure4Columns())
        specs.push_back(s);
    std::vector<uint8_t> done(specs.size(), 0);
    std::vector<size_t> group_of(specs.size(), SIZE_MAX);
    const std::vector<ExecGroup> plan = sim::planPhase2(specs, done, 0);
    for (size_t g = 0; g < plan.size(); ++g)
        for (size_t s : plan[g].rows)
            group_of[s] = g;

    size_t pairs = 0, fused_pairs = 0;
    for (size_t a = 0; a < specs.size(); ++a) {
        for (size_t b = a + 1; b < specs.size(); ++b) {
            if (specs[a].kind != ModelSpec::Kind::DS ||
                specs[b].kind != ModelSpec::Kind::DS)
                continue;
            const bool supported = core::solSweepSupported(
                {sim::dynamicConfigFor(specs[a]),
                 sim::dynamicConfigFor(specs[b])});
            EXPECT_EQ(group_of[a] == group_of[b], supported)
                << specs[a].label() << " / " << specs[b].label();
            ++pairs;
            fused_pairs += supported;
        }
    }
    // Both outcomes occur: figure 4 perfects prediction and, in half
    // its columns, ignores data dependences.
    EXPECT_GT(fused_pairs, 0u);
    EXPECT_LT(fused_pairs, pairs);
}

/** One context must serve both executors, flat and chunked, and
 *  single-cell runs back to back with no state bleed. */
TEST(Executor, SolContextReuseAcrossModes)
{
    trace::TraceView view(testing::randomTrace(17, 3000));
    std::vector<DynamicConfig> fam =
        solFamily(4, ConsistencyModel::RC, 1);
    const DynamicResult single = DynamicProcessor(fam[2]).run(view);

    SimContext shared;
    for (int round = 0; round < 2; ++round) {
        expectSweepsMatch(view, fam, "round " + std::to_string(round),
                          shared);
        // Interleave a single-cell run through lane 0.
        expectSameDynamicResult(
            DynamicProcessor(fam[2]).run(view, shared), single);
    }
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

/**
 * Every config variant — all four models, mixed windows, MSHR limits,
 * SC speculation, the read-delay collector — must produce the same
 * bits swept from a chunked source as through single-cell runs, at
 * every chunk-boundary length.
 */
TEST(Executor, StreamedSweepMatchesSingleCellRuns)
{
    std::vector<DynamicConfig> configs = variantConfigs();
    for (size_t n : streamLengths()) {
        SimContext ctx;
        expectSweepsMatch(multiChunkView(61, n), configs,
                          "n " + std::to_string(n), ctx);
    }
}

/** Window-sweep families against per-cell runs at every
 *  chunk-boundary length, lane tails included. */
TEST(Executor, StreamedSolModesMatchPerCellRuns)
{
    for (size_t n : streamLengths()) {
        trace::TraceView view = multiChunkView(67, n);
        for (ConsistencyModel m :
             {ConsistencyModel::SC, ConsistencyModel::RC}) {
            for (size_t k : {size_t{1}, size_t{3}, size_t{5}}) {
                std::vector<DynamicConfig> configs = solFamily(k, m, 1);
                ASSERT_TRUE(core::solSweepSupported(configs));
                SimContext ctx;
                expectSweepsMatch(view, configs,
                                  "n " + std::to_string(n) + " model " +
                                      std::to_string(int(m)) + " k " +
                                      std::to_string(k),
                                  ctx);
            }
        }
    }
}

/** One context serves flat sweeps, streamed sweeps, and single-cell
 *  runs back to back with no state bleed. */
TEST(Executor, StreamedContextReuseAgainstFlat)
{
    std::vector<DynamicConfig> fam =
        solFamily(4, ConsistencyModel::RC, 1);
    SimContext shared;
    for (size_t n : streamLengths()) {
        trace::TraceView view = multiChunkView(71, n);
        trace::ChunkedView cv(view);

        std::vector<DynamicResult> single;
        for (const DynamicConfig &cfg : fam)
            single.push_back(DynamicProcessor(cfg).run(view));

        for (int round = 0; round < 2; ++round) {
            SCOPED_TRACE("n " + std::to_string(n) + " round " +
                         std::to_string(round));
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
}

// --- The static sweep -------------------------------------------------

/** Every static row the sweep must reproduce: BASE, and SSBR and SS
 *  under each model at the paper's and at shallow buffer depths. */
std::vector<core::StaticSweepRow>
staticRows()
{
    std::vector<core::StaticSweepRow> rows;
    rows.push_back({true, {}});
    for (ConsistencyModel model :
         {ConsistencyModel::SC, ConsistencyModel::PC,
          ConsistencyModel::WO, ConsistencyModel::RC}) {
        for (bool nonblocking : {false, true}) {
            for (uint32_t depth : {16u, 1u, 3u}) {
                core::StaticSweepRow row;
                row.config.model = model;
                row.config.nonblocking_reads = nonblocking;
                row.config.write_buffer_depth = depth;
                row.config.read_buffer_depth = depth == 16 ? 16 : depth + 1;
                rows.push_back(row);
            }
        }
    }
    return rows;
}

/** Row @p row's own run, through its processor's public entry point. */
RunResult
runStaticRow(const core::TraceSource &src, const core::StaticSweepRow &row)
{
    if (row.base)
        return core::BaseProcessor().run(src);
    return StaticProcessor(row.config).run(src);
}

/**
 * Static trace lengths: empty, one instruction, the chunk edges, and
 * a multi-chunk trace whose last chunk is partial.
 */
std::vector<size_t>
staticLengths()
{
    constexpr size_t k = trace::ChunkedView::kChunkInstrs;
    return {0, 1, k - 1, k, k + 1, 2 * k + 777};
}

/**
 * The fused static sweep equals each row's own run, flat and chunked,
 * at every length, for BASE and for SSBR and SS under every model and
 * at non-default buffer depths — and the AoS oracles agree.
 */
TEST(Executor, StaticSweepMatchesPerRowRuns)
{
    const std::vector<core::StaticSweepRow> rows = staticRows();
    SimContext ctx; // Reused across every length and residency.
    for (size_t n : staticLengths()) {
        SCOPED_TRACE("n = " + std::to_string(n));
        const trace::Trace raw = testing::randomTrace(61 + n, n);
        const trace::TraceView view(raw);
        const trace::ChunkedView cv(view);
        for (int chunked = 0; chunked < 2; ++chunked) {
            SCOPED_TRACE(chunked ? "chunked" : "flat");
            const core::TraceSource src =
                chunked ? core::TraceSource(cv) : core::TraceSource(view);
            const std::vector<RunResult> fused =
                core::runStaticSweep(src, rows, ctx);
            ASSERT_EQ(fused.size(), rows.size());
            for (size_t k = 0; k < rows.size(); ++k) {
                SCOPED_TRACE("row " + std::to_string(k));
                EXPECT_EQ(fused[k], runStaticRow(src, rows[k]));
                if (rows[k].base)
                    EXPECT_EQ(fused[k], core::BaseProcessor().run(raw));
                else
                    EXPECT_EQ(fused[k],
                              StaticProcessor(rows[k].config)
                                  .runReference(raw));
            }
        }
    }
}

/**
 * A row's state crosses chunk boundaries: under WO a release's
 * completion gates the stores after it, so they issue in the future
 * and serialize on the previous store's issue cycle — including the
 * store that opens the second chunk, which only the carried state
 * orders after the one that closed the first.
 */
TEST(Executor, StaticSweepCarriesStateAcrossChunkBoundaries)
{
    constexpr size_t k = trace::ChunkedView::kChunkInstrs;
    trace::Trace raw;
    for (size_t i = 0; i + 3 < k; ++i)
        raw.append(trace::makeCompute(trace::Op::IALU));
    trace::TraceInst release = trace::makeSync(trace::Op::UNLOCK, 0x40);
    release.latency = 100;
    raw.append(release);
    for (int s = 0; s < 3; ++s) {
        trace::TraceInst store = trace::makeStore(0x80 + 8 * s);
        store.latency = 50;
        raw.append(store);
    }
    ASSERT_EQ(raw.size(), k + 1);
    const trace::TraceView view(raw);
    const trace::ChunkedView cv(view);
    SimContext ctx;
    for (ConsistencyModel model : {ConsistencyModel::WO,
                                   ConsistencyModel::RC}) {
        for (bool nonblocking : {false, true}) {
            core::StaticSweepRow row;
            row.config.model = model;
            row.config.nonblocking_reads = nonblocking;
            const RunResult want =
                StaticProcessor(row.config).runReference(raw);
            EXPECT_EQ(core::runStaticSweep(cv, {row}, ctx).front(), want);
            EXPECT_EQ(core::runStaticSweep(view, {row}, ctx).front(), want);
        }
    }
}

/**
 * runGroup's planned static group (figure 3's BASE, SSBR and SS rows)
 * equals per-row runModel on flat and chunked bundles, and one
 * context serves groups of different sizes in any order.
 */
TEST(Executor, RunGroupStaticSweepMatchesPerRowRuns)
{
    std::vector<ModelSpec> specs = sim::figure3Columns();
    specs.push_back(ModelSpec::ssbr(ConsistencyModel::WO));
    specs.push_back(ModelSpec::ss(ConsistencyModel::WO));
    std::vector<uint8_t> ds_done(specs.size(), 0);
    for (size_t s = 0; s < specs.size(); ++s)
        ds_done[s] = specs[s].kind == ModelSpec::Kind::DS;

    SimContext ctx;
    for (size_t n : staticLengths()) {
        SCOPED_TRACE("n = " + std::to_string(n));
        sim::ViewBundle flat, chunked;
        flat.view = std::make_shared<const trace::TraceView>(
            testing::randomTrace(83 + n, n));
        chunked.chunked = std::make_shared<const trace::ChunkedView>(
            *flat.view);
        // Unlimited (one group of nine rows), then packed at cap 3
        // (six rows and three), so consecutive groups on ctx differ
        // in size.
        for (size_t cap : {0u, 3u, 0u}) {
            const std::vector<ExecGroup> groups =
                sim::planPhase2(specs, ds_done, cap);
            ASSERT_EQ(groups.size(), cap == 0 ? 1u : 2u);
            for (const ExecGroup &g : groups) {
                ASSERT_TRUE(g.fused);
                for (const sim::ViewBundle *b : {&flat, &chunked}) {
                    const std::vector<RunResult> got =
                        sim::runGroup(*b, specs, g, ctx);
                    ASSERT_EQ(got.size(), g.rows.size());
                    for (size_t k = 0; k < g.rows.size(); ++k)
                        EXPECT_EQ(got[k],
                                  sim::runModel(*flat.view,
                                                specs[g.rows[k]]))
                            << specs[g.rows[k]].label()
                            << (b == &flat ? " flat" : " chunked");
                }
            }
        }
    }
}

TEST(Executor, StaticSweepRejectsZeroBufferDepths)
{
    const trace::TraceView view(testing::randomTrace(3, 100));
    SimContext ctx;
    core::StaticSweepRow row;
    row.config.write_buffer_depth = 0;
    EXPECT_THROW(core::runStaticSweep(view, {row}, ctx),
                 std::invalid_argument);
    row.config.write_buffer_depth = 16;
    row.config.nonblocking_reads = true;
    row.config.read_buffer_depth = 0;
    EXPECT_THROW(core::runStaticSweep(view, {row}, ctx),
                 std::invalid_argument);
}

/**
 * runGroup against a chunk-resident bundle must reproduce the flat
 * bundle's rows for every planned group, at every chunk-boundary
 * length. Every row (fused DS sweeps, DS singletons, BASE, SSBR and
 * SS) streams the chunks in order, so no group ever flattens the
 * trace: the resident bytes never grow.
 */
TEST(Executor, RunGroupChunkedBundleMatchesFlat)
{
    std::vector<ModelSpec> specs = combinedSpecs();
    std::vector<uint8_t> done(specs.size(), 0);
    for (size_t n :
         streamLengths(2 * trace::ChunkedView::kChunkInstrs + 555)) {
        trace::Trace raw = testing::randomTrace(79, n);
        sim::ViewBundle flat;
        flat.view = trace::TraceView::build(raw);
        flat.stats = trace::computeStats(raw);
        flat.verified = true;
        sim::ViewBundle chunked = flat;
        chunked.view.reset();
        chunked.chunked =
            std::make_shared<trace::ChunkedView>(*flat.view);

        const size_t resident = chunked.traceBytesResident();
        if (n >= trace::ChunkedView::kChunkInstrs) {
            EXPECT_LT(resident, flat.traceBytesResident() / 2)
                << "n " << n;
        }

        for (size_t cap : {size_t{0}, size_t{1}, size_t{3}}) {
            SimContext flat_ctx, chunked_ctx;
            for (const ExecGroup &g : sim::planPhase2(specs, done, cap)) {
                std::vector<RunResult> want =
                    sim::runGroup(flat, specs, g, flat_ctx);
                std::vector<RunResult> got =
                    sim::runGroup(chunked, specs, g, chunked_ctx);
                ASSERT_EQ(got.size(), want.size());
                for (size_t i = 0; i < g.rows.size(); ++i) {
                    SCOPED_TRACE("n " + std::to_string(n) + " cap " +
                                 std::to_string(cap) + " " +
                                 specs[g.rows[i]].label());
                    EXPECT_EQ(got[i], want[i]);
                }
                EXPECT_EQ(chunked.traceBytesResident(), resident)
                    << "n " << n << " cap " << cap
                    << ": a group flattened the trace";
            }
        }
    }
}

/**
 * A file-backed bundle (the trace left in its bundle file, each chunk
 * fetched and verified as a group reaches it) runs every DS, static
 * and fused group exactly as the in-memory chunked and flat forms do,
 * at lengths around the chunk boundary; and one pass fetches what
 * passBytes says, with the address slice skipped for static groups.
 */
TEST(Executor, RunGroupFileBackedBundleMatchesInMemoryAndFlat)
{
    const std::vector<ModelSpec> specs = sim::figure3Columns();
    const std::vector<uint8_t> done(specs.size(), 0);
    constexpr size_t kChunk = trace::ChunkedView::kChunkInstrs;
    for (size_t n : {size_t{0}, size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                     size_t{17161}}) {
        trace::Trace raw = testing::randomTrace(83, n);
        sim::ViewBundle flat;
        flat.view = trace::TraceView::build(raw);
        sim::ViewBundle memory;
        memory.chunked = std::make_shared<trace::ChunkedView>(*flat.view);
        auto stats = std::make_shared<trace::FetchStats>();
        const sim::ViewBundle file =
            testing::fileBackedBundle(raw, "exec", stats);
        ASSERT_TRUE(file.chunked && file.chunked->fileBacked());
        ASSERT_FALSE(file.view);

        for (size_t cap : {size_t{0}, size_t{1}, size_t{3}}) {
            SimContext flat_ctx, memory_ctx, file_ctx;
            for (const ExecGroup &g : sim::planPhase2(specs, done, cap)) {
                const uint64_t before = stats->bytes.load();
                const std::vector<RunResult> want =
                    sim::runGroup(flat, specs, g, flat_ctx);
                const std::vector<RunResult> mem =
                    sim::runGroup(memory, specs, g, memory_ctx);
                const std::vector<RunResult> got =
                    sim::runGroup(file, specs, g, file_ctx);
                const bool is_static =
                    specs[g.rows.front()].kind != ModelSpec::Kind::DS;
                EXPECT_EQ(stats->bytes.load() - before,
                          file.chunked->passBytes(
                              is_static ? trace::TileColumns::kStatic
                                        : trace::TileColumns::kAll))
                    << "n " << n << " cap " << cap;
                ASSERT_EQ(got.size(), want.size());
                ASSERT_EQ(mem.size(), want.size());
                for (size_t i = 0; i < g.rows.size(); ++i) {
                    SCOPED_TRACE("n " + std::to_string(n) + " cap " +
                                 std::to_string(cap) + " " +
                                 specs[g.rows[i]].label());
                    EXPECT_EQ(mem[i], want[i]);
                    EXPECT_EQ(got[i], want[i]);
                }
            }
        }
        EXPECT_FALSE(file.chunked->flattened());
        EXPECT_EQ(stats->verify_failures.load(), 0u);
    }
}

/**
 * Concurrent groups share one file-backed view: each fetches into its
 * own context's tile through positional reads of the one descriptor
 * (run under TSan to check the sharing).
 */
TEST(Executor, ConcurrentGroupsShareOneFileBackedView)
{
    const std::vector<ModelSpec> specs = sim::figure3Columns();
    const std::vector<uint8_t> done(specs.size(), 0);
    trace::Trace raw = testing::randomTrace(89, 5 * 8192 + 77);
    const sim::ViewBundle file = testing::fileBackedBundle(raw, "conc");
    sim::ViewBundle flat;
    flat.view = trace::TraceView::build(raw);
    const std::vector<ExecGroup> groups = sim::planPhase2(specs, done, 3);

    std::vector<std::vector<RunResult>> want;
    SimContext ref_ctx;
    for (const ExecGroup &g : groups)
        want.push_back(sim::runGroup(flat, specs, g, ref_ctx));

    constexpr size_t kThreads = 4;
    std::vector<std::vector<std::vector<RunResult>>> got(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            SimContext ctx;
            for (size_t k = 0; k < groups.size(); ++k)
                got[t].push_back(sim::runGroup(
                    file, specs, groups[(k + t) % groups.size()], ctx));
        });
    for (std::thread &th : threads)
        th.join();
    for (size_t t = 0; t < kThreads; ++t)
        for (size_t k = 0; k < groups.size(); ++k)
            EXPECT_EQ(got[t][k], want[(k + t) % groups.size()])
                << "thread " << t << " group " << k;
}

} // namespace
} // namespace dsmem
