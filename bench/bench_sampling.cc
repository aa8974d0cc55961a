/**
 * @file
 * Statistical-sampling accuracy and speedup: exact full-trace DS runs
 * against SMARTS-style sampled estimates (sim::SamplingPlan) on one
 * large synthetic trace, per cell across the consistency models and
 * window sizes.
 *
 * For every cell the bench reports the exact cycle count, the sampled
 * estimate with its 95% CI, the relative error, whether the exact
 * mean CPI falls inside the CI, and the per-cell wall-clock speedup
 * (detailed windows only — the one-time functional warming pass is
 * amortized across all cells and reported separately). Everything is
 * seeded and deterministic: the estimates, errors, and CI-containment
 * verdicts reproduce bit-for-bit across runs and hosts; only the
 * *_seconds fields vary.
 *
 * Results go to stdout as a table and to BENCH_sampling.json
 * (override with --json). Defaults to --full (a >= 10M-record trace,
 * where sampling earns its keep); --small uses 2M records. The plan
 * defaults to U=200000, W_d=1000, W_w=3000, seed 1 (the warm-up must
 * cover the reorder window's refill transient plus the store-buffer
 * drain — too short a W_w biases the estimate upward); override with
 * --sample-* flags. Exits non-zero when any cell's exact mean falls
 * outside the reported CI.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench_args.h"
#include "core/dynamic_processor.h"
#include "core/sim_context.h"
#include "runner/result_sink.h"
#include "sim/executor.h"
#include "sim/sampling.h"
#include "sim/synthetic.h"
#include "stats/table.h"
#include "trace/trace_view.h"

using namespace dsmem;

namespace {

using runner::jsonDouble;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Best (minimum) of @p rounds timed executions of @p fn. */
double
bestSeconds(const std::function<void()> &fn, unsigned rounds)
{
    double best = 1e100;
    for (unsigned round = 0; round < rounds; ++round) {
        auto start = std::chrono::steady_clock::now();
        fn();
        best = std::min(best, secondsSince(start));
    }
    return best;
}

struct CellReport {
    std::string label;
    uint64_t exact_cycles = 0;
    uint64_t est_cycles = 0;
    double cpi_mean = 0.0;
    double ci95 = 0.0;
    double abs_error = 0.0; ///< |est - exact| / exact cycles.
    bool exact_in_ci = false;
    double exact_seconds = 0.0;
    double sampled_seconds = 0.0;

    double speedup() const
    {
        return sampled_seconds == 0.0 ? 0.0
                                      : exact_seconds / sampled_seconds;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    if (args.json_path.empty())
        args.json_path = "BENCH_sampling.json";

    sim::SamplingPlan plan = args.sampling;
    if (!plan.enabled()) {
        plan.period = 200000;
        plan.detailed = 1000;
        plan.warmup = 3000;
        plan.seed = 1;
    }

    // One large synthetic trace: fixed seed, irregular enough (random
    // branch outcomes, chained use distances) that window means carry
    // real variance, long enough that exact runs are worth sampling.
    sim::SyntheticConfig synth;
    synth.instructions = args.small ? 2'000'000 : 10'000'000;
    synth.miss_spacing = 23; // Prime: no harmonic lock with the plan.
    synth.miss_latency = 50;
    synth.use_distance = 4;
    synth.branch_fraction = 0.1;
    synth.branch_taken_bias = 0.8;
    synth.branch_sites = 16;
    synth.seed = 42;

    auto gen_start = std::chrono::steady_clock::now();
    trace::Trace t = sim::generateSynthetic(synth);
    std::shared_ptr<const trace::TraceView> view =
        trace::TraceView::build(t);
    double prep_seconds = secondsSince(gen_start);
    const uint64_t n = view->size();

    const unsigned rounds = args.resolvedRepeat(3);

    // The one-time functional warming pass every cell shares.
    sim::LivePointSet points;
    double warm_pass_seconds = bestSeconds(
        [&] { points = sim::computeLivePoints(*view, plan); }, rounds);
    const uint64_t windows = points.points.size();

    std::vector<sim::ModelSpec> cells;
    for (core::ConsistencyModel model :
         {core::ConsistencyModel::SC, core::ConsistencyModel::PC,
          core::ConsistencyModel::WO, core::ConsistencyModel::RC})
        cells.push_back(sim::ModelSpec::ds(model, 64));
    cells.push_back(sim::ModelSpec::ds(core::ConsistencyModel::RC, 16));
    cells.push_back(
        sim::ModelSpec::ds(core::ConsistencyModel::RC, 256));

    core::SimContext ctx;
    std::vector<CellReport> reports;
    for (const sim::ModelSpec &spec : cells) {
        CellReport rep;
        rep.label = spec.label();
        core::DynamicProcessor proc(sim::dynamicConfigFor(spec));

        core::RunResult exact;
        rep.exact_seconds = bestSeconds(
            [&] { exact = proc.run(*view, ctx); }, rounds);
        rep.exact_cycles = exact.cycles;

        core::RunResult est;
        sim::SampleSummary summary;
        rep.sampled_seconds = bestSeconds(
            [&] {
                std::vector<core::WindowResult> ws = proc.runSampled(
                    *view, points.points, plan.warmup, plan.detailed,
                    ctx);
                std::tie(est, summary) =
                    sim::estimateFromWindows(ws, n);
            },
            rounds);
        rep.est_cycles = est.cycles;
        rep.cpi_mean = summary.cpi_mean;
        rep.ci95 = summary.ci95;
        rep.abs_error = std::abs(static_cast<double>(est.cycles) -
                                 static_cast<double>(exact.cycles)) /
            static_cast<double>(exact.cycles);
        double exact_cpi = static_cast<double>(exact.cycles) /
            static_cast<double>(n);
        rep.exact_in_ci =
            std::abs(exact_cpi - summary.cpi_mean) <= summary.ci95;
        reports.push_back(rep);
    }

    double min_speedup = 1e100, max_abs_error = 0.0;
    bool all_in_ci = true;
    for (const CellReport &rep : reports) {
        min_speedup = std::min(min_speedup, rep.speedup());
        max_abs_error = std::max(max_abs_error, rep.abs_error);
        all_in_ci = all_in_ci && rep.exact_in_ci;
    }

    stats::Table table({"cell", "exact cycles", "est cycles",
                        "err %", "cpi±ci95", "in CI", "speedup"});
    for (const CellReport &rep : reports) {
        table.addRow(
            {rep.label, std::to_string(rep.exact_cycles),
             std::to_string(rep.est_cycles),
             stats::Table::fixed(rep.abs_error * 100.0, 3),
             stats::Table::fixed(rep.cpi_mean, 4) + "±" +
                 stats::Table::fixed(rep.ci95, 4),
             rep.exact_in_ci ? "yes" : "NO",
             stats::Table::fixed(rep.speedup(), 1) + "x"});
    }
    std::printf("statistical sampling — %llu-record synthetic trace "
                "(gen+decode %.2fs), plan U=%llu W_d=%llu W_w=%llu "
                "seed=%llu: %llu windows, warm pass %.3fs\n%s",
                static_cast<unsigned long long>(n), prep_seconds,
                static_cast<unsigned long long>(plan.period),
                static_cast<unsigned long long>(plan.detailed),
                static_cast<unsigned long long>(plan.warmup),
                static_cast<unsigned long long>(plan.seed),
                static_cast<unsigned long long>(windows),
                warm_pass_seconds, table.toString().c_str());
    std::printf("min per-cell speedup %.1fx, max relative error "
                "%.4f%%, exact mean inside 95%% CI: %s\n",
                min_speedup, max_abs_error * 100.0,
                all_in_ci ? "all cells" : "FAILED");

    std::ofstream out(args.json_path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n",
                     args.json_path.c_str());
        return 1;
    }
    out << "{\n  \"schema_version\": 1,\n"
        << "  \"bench\": \"bench_sampling\",\n"
        << "  \"small\": " << (args.small ? "true" : "false") << ",\n"
        << "  \"trace_records\": " << n << ",\n"
        << "  \"period\": " << plan.period << ",\n"
        << "  \"detailed\": " << plan.detailed << ",\n"
        << "  \"warmup\": " << plan.warmup << ",\n"
        << "  \"seed\": " << plan.seed << ",\n"
        << "  \"windows\": " << windows << ",\n"
        << "  \"warm_pass_seconds\": " << jsonDouble(warm_pass_seconds)
        << ",\n"
        << "  \"min_speedup\": " << jsonDouble(min_speedup) << ",\n"
        << "  \"max_abs_error\": " << jsonDouble(max_abs_error)
        << ",\n"
        << "  \"all_in_ci\": " << (all_in_ci ? "true" : "false")
        << ",\n"
        << "  \"cells\": [\n";
    for (size_t i = 0; i < reports.size(); ++i) {
        const CellReport &rep = reports[i];
        out << "    {\"label\": \"" << rep.label
            << "\", \"exact_cycles\": " << rep.exact_cycles
            << ", \"est_cycles\": " << rep.est_cycles
            << ", \"cpi_mean\": " << jsonDouble(rep.cpi_mean)
            << ", \"ci95\": " << jsonDouble(rep.ci95)
            << ", \"abs_error\": " << jsonDouble(rep.abs_error)
            << ", \"exact_in_ci\": "
            << (rep.exact_in_ci ? "true" : "false")
            << ", \"exact_seconds\": " << jsonDouble(rep.exact_seconds)
            << ", \"sampled_seconds\": "
            << jsonDouble(rep.sampled_seconds)
            << ", \"speedup\": " << jsonDouble(rep.speedup()) << "}"
            << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";

    if (!all_in_ci) {
        std::fprintf(stderr,
                     "FAILED: exact mean outside the 95%% CI for at "
                     "least one cell\n");
        return 1;
    }
    return 0;
}
