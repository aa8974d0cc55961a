/**
 * @file
 * SMARTS-style statistical sampling: plan validation and offset
 * determinism, the functional warmer, the Student-t estimator, the
 * DSLP live-point codec, the sampled executor twins (including the
 * exact-run fallbacks), and an end-to-end campaign with sampling
 * enabled. The randomized oracle checks that sampled estimates land
 * close to the exact run with the exact mean inside the reported 95%
 * CI — the statistical contract the bench and CI smoke rely on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/dynamic_processor.h"
#include "core/sim_context.h"
#include "random_trace.h"
#include "runner/campaign.h"
#include "runner/runner.h"
#include "sim/app_registry.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/sampling.h"
#include "sim/trace_bundle.h"
#include "trace/trace_view.h"
#include "util/errors.h"

namespace dsmem {
namespace {

using core::ConsistencyModel;
using core::SimContext;
using sim::LivePointSet;
using sim::ModelSpec;
using sim::SampledCell;
using sim::SamplingPlan;

SamplingPlan
testPlan(uint64_t period = 5000, uint64_t detailed = 500,
         uint64_t warmup = 1500)
{
    SamplingPlan plan;
    plan.period = period;
    plan.detailed = detailed;
    plan.warmup = warmup;
    return plan;
}

// --- Plan validation and determinism --------------------------------

TEST(SamplingPlan, Validation)
{
    std::string why;
    EXPECT_TRUE(SamplingPlan{}.validate(&why)); // Disabled: valid.

    EXPECT_TRUE(testPlan().validate(&why));

    SamplingPlan no_detail = testPlan();
    no_detail.detailed = 0;
    EXPECT_FALSE(no_detail.validate(&why));
    EXPECT_FALSE(why.empty());

    SamplingPlan overflow = testPlan(1000, 600, 500);
    EXPECT_FALSE(overflow.validate(&why)); // 600 + 500 > 1000.

    SamplingPlan exact_fit = testPlan(1000, 600, 400);
    EXPECT_TRUE(exact_fit.validate(&why)); // Window == period is fine.
}

TEST(SamplingPlan, OffsetIsDeterministicAndBounded)
{
    SamplingPlan plan = testPlan();
    uint64_t a = plan.offsetFor("lu_small", 100000);
    EXPECT_EQ(a, plan.offsetFor("lu_small", 100000));
    EXPECT_LT(a, plan.period);

    // The offset keys trace name, length, and seed.
    EXPECT_NE(a, plan.offsetFor("fft_small", 100000));
    EXPECT_NE(a, plan.offsetFor("lu_small", 100001));
    SamplingPlan other = plan;
    other.seed = 2;
    EXPECT_NE(a, other.offsetFor("lu_small", 100000));
}

TEST(SamplingPlan, WindowPositionsFitTheTrace)
{
    SamplingPlan plan = testPlan();
    const uint64_t n = 23117;
    std::vector<uint64_t> pos = plan.windowPositions("t", n);
    ASSERT_FALSE(pos.empty());
    EXPECT_EQ(pos[0], plan.offsetFor("t", n));
    for (size_t i = 0; i < pos.size(); ++i) {
        if (i > 0) {
            EXPECT_EQ(pos[i] - pos[i - 1], plan.period);
        }
        // Every window (warm-up + detailed) fits entirely.
        EXPECT_LE(pos[i] + plan.warmup + plan.detailed, n);
    }
    // No further whole window fits.
    EXPECT_GT(pos.back() + plan.period + plan.warmup + plan.detailed,
              n);
}

// --- Student-t table ------------------------------------------------

TEST(Sampling, StudentT95)
{
    EXPECT_NEAR(sim::studentT95(1), 12.706, 1e-3);
    EXPECT_NEAR(sim::studentT95(10), 2.228, 1e-3);
    EXPECT_NEAR(sim::studentT95(30), 2.042, 1e-3);
    EXPECT_NEAR(sim::studentT95(1000000), 1.960, 1e-3);
    // Monotone non-increasing in df.
    for (uint64_t df = 1; df < 200; ++df)
        EXPECT_GE(sim::studentT95(df), sim::studentT95(df + 1));
}

// --- Estimator hand-check -------------------------------------------

TEST(Sampling, EstimateFromWindowsHandCheck)
{
    // Two windows of 100 steps: 220 and 180 cycles -> mean CPI 2.0.
    std::vector<core::WindowResult> ws(2);
    ws[0].steps = 100;
    ws[0].r.breakdown.busy = 100;
    ws[0].r.breakdown.read = 120;
    ws[0].r.cycles = 220;
    ws[0].r.instructions = 100;
    ws[1].steps = 100;
    ws[1].r.breakdown.busy = 100;
    ws[1].r.breakdown.read = 80;
    ws[1].r.cycles = 180;
    ws[1].r.instructions = 100;

    auto [est, summary] = sim::estimateFromWindows(ws, 10000);
    EXPECT_TRUE(summary.sampled);
    EXPECT_EQ(summary.windows, 2u);
    EXPECT_EQ(summary.measured, 200u);
    EXPECT_NEAR(summary.cpi_mean, 2.0, 1e-12);
    // s = |2.2 - 1.8| / sqrt(2) ... half-width = t(1) * s / sqrt(2):
    // sample sd of {2.2, 1.8} is 0.2828..., se 0.2, t(1) = 12.706.
    EXPECT_NEAR(summary.ci95, 12.706 * 0.2, 1e-3);

    // Components scale by n / measured = 50 and cycles stays the
    // breakdown total.
    EXPECT_EQ(est.breakdown.busy, 10000u);
    EXPECT_EQ(est.breakdown.read, 10000u);
    EXPECT_EQ(est.cycles, est.breakdown.total());
    EXPECT_EQ(est.instructions, 10000u);

    // Fewer than two windows is a caller error.
    ws.resize(1);
    EXPECT_THROW(sim::estimateFromWindows(ws, 10000),
                 std::invalid_argument);
}

// --- Functional warmer ----------------------------------------------

TEST(Sampling, WarmPassIsDeterministic)
{
    trace::TraceView view(testing::randomTrace(3, 40000));
    SamplingPlan plan = testPlan();
    LivePointSet a = sim::computeLivePoints(view, plan);
    LivePointSet b = sim::computeLivePoints(view, plan);

    std::ostringstream sa, sb;
    sim::saveLivePoints(a, sa);
    sim::saveLivePoints(b, sb);
    EXPECT_EQ(sa.str(), sb.str());

    EXPECT_EQ(a.points.size(),
              plan.windowPositions(view.name(), view.size()).size());
    EXPECT_GE(a.points.size(), 2u);
    EXPECT_EQ(a.instructions, view.size());
    EXPECT_EQ(a.offset, plan.offsetFor(view.name(), view.size()));

    EXPECT_THROW(sim::computeLivePoints(view, SamplingPlan{}),
                 std::invalid_argument);
}

// --- DSLP codec -----------------------------------------------------

TEST(Sampling, LivePointRoundTrip)
{
    trace::TraceView view(testing::randomTrace(17, 30000));
    LivePointSet set = sim::computeLivePoints(view, testPlan());

    std::ostringstream os;
    sim::saveLivePoints(set, os);
    std::istringstream is(os.str());
    LivePointSet back = sim::loadLivePoints(is);

    EXPECT_EQ(back.period, set.period);
    EXPECT_EQ(back.seed, set.seed);
    EXPECT_EQ(back.offset, set.offset);
    EXPECT_EQ(back.instructions, set.instructions);
    ASSERT_EQ(back.points.size(), set.points.size());

    // Re-serialization is byte-identical: the codec round-trips every
    // field the warm state contains.
    std::ostringstream os2;
    sim::saveLivePoints(back, os2);
    EXPECT_EQ(os.str(), os2.str());
}

TEST(Sampling, LivePointLoaderRejectsCorruption)
{
    trace::TraceView view(testing::randomTrace(17, 20000));
    LivePointSet set = sim::computeLivePoints(view, testPlan());
    std::ostringstream os;
    sim::saveLivePoints(set, os);
    const std::string good = os.str();

    { // Truncation anywhere fails with a typed error.
        std::istringstream is(good.substr(0, good.size() / 2));
        EXPECT_THROW(sim::loadLivePoints(is), std::runtime_error);
    }
    { // A flipped payload byte breaks the checksum.
        std::string bad = good;
        bad[bad.size() / 2] ^= 0x40;
        std::istringstream is(bad);
        EXPECT_THROW(sim::loadLivePoints(is), std::runtime_error);
    }
    { // Trailing garbage after the hash is rejected.
        std::istringstream is(good + "x");
        EXPECT_THROW(sim::loadLivePoints(is), util::FormatError);
    }
    { // Wrong magic.
        std::string bad = good;
        bad[0] = 'X';
        std::istringstream is(bad);
        EXPECT_THROW(sim::loadLivePoints(is), util::FormatError);
    }
}

// --- Sampled-vs-exact oracle ----------------------------------------

TEST(Sampling, SampledMatchesExactAcrossModels)
{
    // Randomized traces, every consistency model: the estimate must
    // land within a few percent of the exact run and the exact mean
    // CPI must fall inside the reported 95% CI. Seeds and the plan
    // are fixed, so this is deterministic — a failure means the
    // warm-up no longer heals the live-point approximation.
    SamplingPlan plan = testPlan(4000, 400, 1200);
    for (uint64_t seed : {2u, 11u, 23u}) {
        trace::Trace t = testing::randomTrace(seed, 80000);
        trace::TraceView view(t);
        LivePointSet points = sim::computeLivePoints(view, plan);
        ASSERT_GE(points.points.size(), 2u);

        for (ConsistencyModel m :
             {ConsistencyModel::SC, ConsistencyModel::PC,
              ConsistencyModel::WO, ConsistencyModel::RC}) {
            ModelSpec spec = ModelSpec::ds(m, 64);
            SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                         spec.label());
            SimContext ctx;
            core::RunResult exact = sim::runModel(view, spec, ctx);
            SampledCell cell =
                sim::runModelSampled(view, spec, plan, points, ctx);

            ASSERT_TRUE(cell.sampling.sampled);
            EXPECT_EQ(cell.sampling.windows, points.points.size());
            EXPECT_EQ(cell.sampling.measured,
                      points.points.size() * plan.detailed);
            EXPECT_EQ(cell.result.cycles,
                      cell.result.breakdown.total());
            // Retired (non-sync) instructions are estimated from
            // window rates like every other counter.
            EXPECT_NEAR(static_cast<double>(cell.result.instructions),
                        static_cast<double>(exact.instructions),
                        0.01 * static_cast<double>(exact.instructions));

            double exact_cpi = static_cast<double>(exact.cycles) /
                static_cast<double>(view.size());
            EXPECT_LE(std::abs(exact_cpi - cell.sampling.cpi_mean),
                      cell.sampling.ci95)
                << "exact CPI " << exact_cpi << " outside "
                << cell.sampling.cpi_mean << " +- "
                << cell.sampling.ci95;

            double rel_err =
                std::abs(static_cast<double>(cell.result.cycles) -
                         static_cast<double>(exact.cycles)) /
                static_cast<double>(exact.cycles);
            EXPECT_LT(rel_err, 0.10);
        }
    }
}

TEST(Sampling, NonDsSpecsRunExactly)
{
    trace::TraceView view(testing::randomTrace(5, 30000));
    SamplingPlan plan = testPlan();
    LivePointSet points = sim::computeLivePoints(view, plan);

    for (ModelSpec spec :
         {ModelSpec::base(), ModelSpec::ssbr(ConsistencyModel::PC),
          ModelSpec::ss(ConsistencyModel::RC)}) {
        SCOPED_TRACE(spec.label());
        SimContext ctx, fresh;
        SampledCell cell =
            sim::runModelSampled(view, spec, plan, points, ctx);
        EXPECT_FALSE(cell.sampling.sampled);
        EXPECT_EQ(cell.result, sim::runModel(view, spec, fresh));
    }
}

TEST(Sampling, FewerThanTwoWindowsFallsBackToExact)
{
    // A trace shorter than two whole periods yields < 2 windows; the
    // sampled twin must silently run the exact loop.
    trace::TraceView view(testing::randomTrace(9, 6000));
    SamplingPlan plan = testPlan();
    LivePointSet points = sim::computeLivePoints(view, plan);
    ASSERT_LT(points.points.size(), 2u);

    ModelSpec spec = ModelSpec::ds(ConsistencyModel::RC, 64);
    SimContext ctx, fresh;
    SampledCell cell =
        sim::runModelSampled(view, spec, plan, points, ctx);
    EXPECT_FALSE(cell.sampling.sampled);
    EXPECT_EQ(cell.result, sim::runModel(view, spec, fresh));
}

TEST(Sampling, GroupSampledMatchesPerRow)
{
    trace::TraceView view(testing::randomTrace(31, 60000));
    SamplingPlan plan = testPlan();
    LivePointSet points = sim::computeLivePoints(view, plan);

    std::vector<ModelSpec> specs;
    specs.push_back(ModelSpec::base());
    for (uint32_t w : {16u, 64u, 256u})
        specs.push_back(ModelSpec::ds(ConsistencyModel::RC, w));

    sim::ExecGroup group;
    for (size_t s = 0; s < specs.size(); ++s)
        group.rows.push_back(s);
    group.fused = true;

    SimContext ctx;
    std::vector<SampledCell> cells =
        sim::runGroupSampled(view, specs, group, plan, points, ctx);
    ASSERT_EQ(cells.size(), specs.size());
    for (size_t s = 0; s < specs.size(); ++s) {
        SCOPED_TRACE(specs[s].label());
        SimContext fresh;
        SampledCell solo = sim::runModelSampled(view, specs[s], plan,
                                                points, fresh);
        EXPECT_EQ(cells[s].result, solo.result);
        EXPECT_EQ(cells[s].sampling, solo.sampling);
    }
}

// --- Campaign end to end --------------------------------------------

std::string
tempJsonPath(const char *tag)
{
    return ::testing::TempDir() + "dsmem_sampling_" + tag + "_" +
        std::to_string(::getpid()) + ".json";
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(SamplingCampaign, EndToEndSampledRowsAndJson)
{
    runner::RunnerOptions opts;
    opts.jobs = 2;
    opts.trace_dir.clear();
    opts.sampling = testPlan(4000, 400, 1200);

    std::vector<ModelSpec> specs;
    specs.push_back(ModelSpec::base());
    specs.push_back(ModelSpec::ds(ConsistencyModel::SC, 64));
    specs.push_back(ModelSpec::ds(ConsistencyModel::RC, 64));

    runner::Campaign campaign("sampling_e2e", opts);
    campaign.add(sim::AppId::LU, specs, memsys::MemoryConfig{},
                 /*small=*/true);
    campaign.run();
    ASSERT_TRUE(campaign.ok()) << campaign.failureSummary();

    const runner::UnitResult &res = campaign.result(0);
    ASSERT_EQ(res.rows.size(), specs.size());
    ASSERT_EQ(res.row_sampling.size(), specs.size());
    EXPECT_FALSE(res.row_sampling[0].sampled); // BASE runs exactly.
    for (size_t s = 1; s < specs.size(); ++s) {
        SCOPED_TRACE(specs[s].label());
        EXPECT_TRUE(res.row_sampling[s].sampled);
        EXPECT_GE(res.row_sampling[s].windows, 2u);
        EXPECT_GT(res.row_sampling[s].ci95, 0.0);
    }

    std::string path = tempJsonPath("on");
    ASSERT_TRUE(campaign.writeJson(path));
    std::string json = slurp(path);
    std::remove(path.c_str());
    EXPECT_NE(json.find("\"sampling\""), std::string::npos);
    EXPECT_NE(json.find("\"ci95\""), std::string::npos);

    // Sampling folds into the campaign signature: a re-sweep under a
    // different plan must not resume an old journal.
    runner::Campaign exact("sampling_e2e", [] {
        runner::RunnerOptions o;
        o.jobs = 2;
        o.trace_dir.clear();
        return o;
    }());
    exact.add(sim::AppId::LU, specs, memsys::MemoryConfig{},
              /*small=*/true);
    EXPECT_NE(campaign.signature(), exact.signature());

    exact.run();
    ASSERT_TRUE(exact.ok());
    std::string exact_path = tempJsonPath("off");
    ASSERT_TRUE(exact.writeJson(exact_path));
    std::string exact_json = slurp(exact_path);
    std::remove(exact_path.c_str());
    // Sampling off: no trace of the extension in the export.
    EXPECT_EQ(exact_json.find("\"sampling\""), std::string::npos);
    EXPECT_EQ(exact_json.find("\"ci95\""), std::string::npos);

    // The exact BASE row matches between the two campaigns (BASE is
    // never sampled), and sampled DS rows carry plausible estimates.
    EXPECT_EQ(res.rows[0].result, exact.result(0).rows[0].result);
    for (size_t s = 1; s < specs.size(); ++s) {
        double exact_cpi =
            static_cast<double>(exact.result(0).rows[s].result.cycles) /
            static_cast<double>(
                exact.result(0).rows[s].result.instructions);
        SCOPED_TRACE(specs[s].label());
        EXPECT_LE(std::abs(exact_cpi - res.row_sampling[s].cpi_mean),
                  res.row_sampling[s].ci95);
    }
}

/** A fused sampled campaign reproduces per-cell runModelSampled on
 *  the same trace and live points. */
TEST(SamplingCampaign, FuseInvariantUnderSampling)
{
    runner::RunnerOptions opts;
    opts.jobs = 2;
    opts.trace_dir.clear();
    opts.sampling = testPlan(4000, 400, 1200);

    std::vector<ModelSpec> specs;
    for (uint32_t w : {16u, 64u, 256u})
        specs.push_back(ModelSpec::ds(ConsistencyModel::RC, w));

    runner::Campaign fused("sampling_fuse", opts);
    fused.add(sim::AppId::LU, specs, memsys::MemoryConfig{},
              /*small=*/true);
    fused.run();
    ASSERT_TRUE(fused.ok());

    const sim::ViewBundle vb = sim::generateView(
        sim::AppId::LU, memsys::MemoryConfig{}, /*small=*/true);
    const LivePointSet points =
        sim::computeLivePoints(*vb.flatView(), opts.sampling);
    core::SimContext ctx;
    for (size_t s = 0; s < specs.size(); ++s) {
        SCOPED_TRACE(specs[s].label());
        const sim::SampledCell cell = sim::runModelSampled(
            *vb.flatView(), specs[s], opts.sampling, points, ctx);
        EXPECT_EQ(fused.result(0).rows[s].result, cell.result);
        EXPECT_EQ(fused.result(0).row_sampling[s], cell.sampling);
    }
}

} // namespace
} // namespace dsmem
