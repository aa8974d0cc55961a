/**
 * @file
 * Phase-2 hot-loop throughput: instructions/second of every timing
 * model (BASE, SSBR/SS x consistency model, DS x consistency model x
 * window), measured twice per cell — the production TraceView loops
 * against the retained pre-optimization reference loops — on one
 * shared LU trace. Before timing, each cell's two implementations are
 * checked for bit-identical results, so a reported speedup can never
 * come from a scheduling divergence.
 *
 * A second section measures the executor layer end to end: the
 * aggregate wall-clock of a figure3+figure4-style campaign sweep over
 * the same trace, per-cell with a cold SimContext each time (the
 * pre-executor path) against planPhase2 fused window sweeps on
 * worker-pinned recycled contexts, at --jobs 1 and --jobs N. Fused
 * results are checked bit-identical to the per-cell results first.
 *
 * Every timing is best-of-N rounds after an untimed warmup; N comes
 * from --repeat (default: 1 round per cell, 2 per campaign sweep).
 * --cold rebuilds the view from the AoS trace between rounds, so the
 * operand arrays are fresh allocations instead of cache-resident
 * from the previous round.
 *
 * A third section measures the *memory-bound* regime the fused
 * struct-of-lanes executor exists for: a streamed synthetic workload
 * of many ~1M-instruction cells whose aggregate TraceView footprint
 * (--stream-gb, default 0.25 GB at --small / 4 GB at --full) dwarfs
 * the last-level cache, so every pass reads the operand arrays cold.
 * The per-cell path runs each of the K window configs as its own
 * scalar pass over every cell (K cold streams of the whole footprint);
 * the fused path runs one struct-of-lanes sweep per cell (one
 * stream). A third leg, memory_bound_streamed, runs the same fused
 * sweep against the chunk-compressed resident form
 * (trace::ChunkedView, decoded inline one chunk at a time): the
 * pass streams ~4-8 compressed bytes per instruction instead of the
 * 28-byte flat SoA row, decoded into an L2-resident tile on the fly.
 * All regimes' fused-vs-per-cell ratios — and the streamed leg's
 * streamed-over-fused ratio and compressed-resident ratio — land in
 * the JSON under "regimes" and are ratcheted by tools/check_perf.py.
 * The warm (cache-resident) fused speedup is the campaign sweep's
 * jobs-1 ratio and is ratcheted only there.
 *
 * Results go to stdout as a table and to BENCH_phase2.json
 * (override with --json). Defaults to --small; pass --full for the
 * paper-scaled trace.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_args.h"
#include "core/base_processor.h"
#include "core/dynamic_processor.h"
#include "core/sim_context.h"
#include "core/static_processor.h"
#include "runner/result_sink.h"
#include "runner/runner.h"
#include "runner/trace_store.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/stream_exec.h"
#include "sim/synthetic.h"
#include "sim/trace_bundle.h"
#include "util/sysinfo.h"
#include "stats/table.h"
#include "trace/chunked_view.h"
#include "trace/trace_stats.h"
#include "trace/trace_view.h"

using namespace dsmem;

namespace {

using runner::jsonDouble;
using runner::jsonEscape;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** One (kind, model, window) throughput measurement. */
struct CellResult {
    std::string label;
    std::string kind;
    std::string model; ///< Empty for BASE.
    uint32_t window = 0;
    double view_ips = 0.0;
    double legacy_ips = 0.0;
    uint64_t cycles = 0; ///< Simulated cycles (both variants agree).

    double speedup() const
    {
        return legacy_ips == 0.0 ? 0.0 : view_ips / legacy_ips;
    }
};

/**
 * The cell timings store each run's cycle count here, so the
 * optimizer cannot delete a call whose result is otherwise unused
 * (with LTO it removed the allocation-free BASE loops outright).
 */
volatile uint64_t g_sink = 0;

/**
 * Best of @p rounds timing windows, each repeating @p run until
 * @p min_seconds elapse; instructions/second.
 *
 * With a @p reset callback (--cold), every timed repetition is
 * preceded by an *untimed* reset that drops and reloads the state the
 * loop streams (DESIGN §9's memory-bound regime: fresh allocations,
 * no warm residency carried between reps); only run() is on the
 * clock. Without one, the loop times back-to-back reps exactly as
 * before.
 */
double
measureIps(const std::function<void()> &run, size_t instructions,
           double min_seconds, unsigned rounds,
           const std::function<void()> &reset = {})
{
    if (reset)
        reset();
    run(); // Warm up caches and allocations.
    double best = 0.0;
    for (unsigned round = 0; round < rounds; ++round) {
        uint64_t reps = 0;
        double elapsed;
        if (reset) {
            elapsed = 0.0;
            do {
                reset();
                auto start = std::chrono::steady_clock::now();
                run();
                elapsed += secondsSince(start);
                ++reps;
            } while (elapsed < min_seconds);
        } else {
            auto start = std::chrono::steady_clock::now();
            do {
                run();
                ++reps;
                elapsed = secondsSince(start);
            } while (elapsed < min_seconds);
        }
        best = std::max(best,
                        static_cast<double>(instructions) *
                            static_cast<double>(reps) / elapsed);
    }
    return best;
}

/** One regime's fused-vs-per-cell campaign measurement. */
struct RegimeResult {
    double percell_seconds = 0.0;
    double fused_seconds = 0.0;

    double speedup() const
    {
        return fused_seconds == 0.0 ? 0.0
                                    : percell_seconds / fused_seconds;
    }
};

/**
 * Hidden re-exec entry (`bench_hotloop --rss-probe BUNDLE MODE`):
 * simulate one service worker on BUNDLE — load its trace with the
 * given residency MODE (`off` = flat SoA, `on` = chunk-compressed
 * streaming) and run one RC DS-64 pass over it — then print this
 * process's peak RSS and resident trace bytes. Runs as a separate
 * process because ru_maxrss is a process-lifetime high-water mark:
 * only a child that ever held exactly one residency strategy can
 * attribute its peak to that strategy.
 */
int
rssProbeMain(int argc, char **argv)
{
    sim::StreamExec mode = sim::StreamExec::Off;
    if (argc != 4 || !sim::parseStreamExec(argv[3], &mode))
        return 2;
    std::ifstream in(argv[2], std::ios::binary);
    if (!in)
        return 2;
    sim::ViewBundle vb = runner::loadBundleView(in, mode);
    core::DynamicConfig config;
    config.model = core::ConsistencyModel::RC;
    config.window = 64;
    const std::vector<core::DynamicConfig> configs{config};
    core::SimContext ctx;
    std::vector<core::DynamicResult> res =
        core::runDynamicSweep(vb, configs, ctx);
    std::printf("rss_probe %llu %llu %llu\n",
                static_cast<unsigned long long>(util::peakRssBytes()),
                static_cast<unsigned long long>(
                    vb.traceBytesResident()),
                static_cast<unsigned long long>(res.front().cycles));
    return 0;
}

/** Worker peak-RSS comparison measured by the --rss-probe children. */
struct WorkerRss {
    size_t instructions = 0;
    uint64_t flat_rss = 0;
    uint64_t streamed_rss = 0;
    uint64_t flat_view_bytes = 0;
    uint64_t streamed_view_bytes = 0;

    bool ok() const { return flat_rss > 0 && streamed_rss > 0; }
    double ratio() const
    {
        return streamed_rss == 0
            ? 0.0
            : static_cast<double>(flat_rss) /
                static_cast<double>(streamed_rss);
    }
};

/**
 * Write a streamed-scale synthetic cell bundle to a temp file and
 * re-exec this binary twice (--rss-probe off / on) against it, so the
 * flat and chunk-compressed worker footprints are measured in clean
 * processes. Failures leave the affected fields zero (ok() false) —
 * the bench still runs, the JSON just records an unusable probe.
 */
WorkerRss
measureWorkerRss(bool small)
{
    WorkerRss r;
    r.instructions = small ? (size_t{1} << 22) : (size_t{1} << 24);
    const std::string path = "/tmp/dsmem_rss_probe_" +
        std::to_string(getpid()) + ".dsmb";
    {
        sim::TraceBundle tb;
        sim::SyntheticConfig sc;
        sc.instructions = r.instructions;
        sc.seed = 7;
        tb.trace = sim::generateSynthetic(sc);
        tb.stats = trace::computeStats(tb.trace);
        tb.verified = true;
        std::ofstream out(path, std::ios::binary);
        if (!out)
            return r;
        runner::saveBundle(tb, out);
        out.flush();
        if (!out)
            return r;
    }
    // Resolve our own binary before handing the command to popen's
    // shell: a literal /proc/self/exe there would name the shell.
    char self[4096];
    const ssize_t self_len =
        readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (self_len <= 0) {
        std::remove(path.c_str());
        return r;
    }
    self[self_len] = '\0';
    auto probe = [&](const char *mode, uint64_t *rss,
                     uint64_t *resident) {
        const std::string cmd =
            std::string(self) + " --rss-probe " + path + " " + mode;
        FILE *p = popen(cmd.c_str(), "r");
        if (!p)
            return;
        char tag[16] = {0};
        unsigned long long rss_v = 0, res_v = 0, cycles = 0;
        const bool parsed = std::fscanf(p, "%15s %llu %llu %llu", tag,
                                        &rss_v, &res_v, &cycles) == 4;
        const int status = pclose(p);
        if (parsed && status == 0 &&
            std::strcmp(tag, "rss_probe") == 0 && cycles > 0) {
            *rss = rss_v;
            *resident = res_v;
        }
    };
    probe("off", &r.flat_rss, &r.flat_view_bytes);
    probe("on", &r.streamed_rss, &r.streamed_view_bytes);
    std::remove(path.c_str());
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "--rss-probe") == 0)
        return rssProbeMain(argc, argv);
    bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, /*default_small=*/true);
    if (args.json_path.empty())
        args.json_path = "BENCH_phase2.json";

    // The reference loops and the view_build_ms decode both need the
    // AoS trace, which only phase 1 returns (the trace store keeps
    // the view alone), so take it straight from generateTrace.
    const sim::TraceBundle bundle =
        sim::generateTrace(sim::AppId::LU, memsys::MemoryConfig{},
                           args.small);
    const trace::Trace &t = bundle.trace;
    const size_t n = t.size();
    const double min_seconds = args.small ? 0.25 : 1.0;
    const unsigned cell_rounds = args.resolvedRepeat(1);
    const unsigned sweep_rounds = args.resolvedRepeat(2);

    // The decode every cell amortizes: one SoA view per trace.
    auto build_start = std::chrono::steady_clock::now();
    std::shared_ptr<const trace::TraceView> view =
        trace::TraceView::build(t);
    double view_build_ms = secondsSince(build_start) * 1e3;

    // --cold: drop and rebuild the view between timed reps, so the
    // operand arrays are fresh allocations each time instead of
    // cache-resident from the previous rep. Cells read *view through
    // the shared_ptr variable, so the swap is picked up transparently.
    const std::function<void()> cold_reset = args.cold
        ? std::function<void()>(
              [&] { view = trace::TraceView::build(t); })
        : std::function<void()>{};

    std::vector<CellResult> cells;
    int mismatches = 0;

    auto check = [&](bool ok, const std::string &label) {
        if (!ok) {
            std::fprintf(stderr,
                         "MISMATCH: %s view result != reference\n",
                         label.c_str());
            ++mismatches;
        }
    };

    {
        CellResult cell;
        cell.label = "BASE";
        cell.kind = "BASE";
        core::BaseProcessor proc;
        core::RunResult ref = proc.run(t);
        core::RunResult opt = proc.run(*view);
        check(ref == opt, cell.label);
        cell.cycles = opt.cycles;
        cell.legacy_ips = measureIps(
            [&] { g_sink = proc.run(t).cycles; }, n, min_seconds,
            cell_rounds);
        cell.view_ips = measureIps(
            [&] { g_sink = proc.run(*view).cycles; }, n, min_seconds,
            cell_rounds, cold_reset);
        cells.push_back(cell);
    }

    const core::ConsistencyModel models[] = {
        core::ConsistencyModel::SC, core::ConsistencyModel::PC,
        core::ConsistencyModel::WO, core::ConsistencyModel::RC};

    for (bool nonblocking : {false, true}) {
        for (core::ConsistencyModel model : models) {
            CellResult cell;
            cell.kind = nonblocking ? "SS" : "SSBR";
            cell.model = std::string(core::consistencyName(model));
            cell.label = cell.model + " " + cell.kind;
            core::StaticConfig config;
            config.model = model;
            config.nonblocking_reads = nonblocking;
            core::StaticProcessor proc(config);
            core::RunResult ref = proc.runReference(t);
            core::RunResult opt = proc.run(*view);
            check(ref == opt, cell.label);
            cell.cycles = opt.cycles;
            cell.legacy_ips = measureIps(
                [&] { g_sink = proc.runReference(t).cycles; }, n,
                min_seconds, cell_rounds);
            cell.view_ips = measureIps(
                [&] { g_sink = proc.run(*view).cycles; }, n,
                min_seconds, cell_rounds, cold_reset);
            cells.push_back(cell);
        }
    }

    for (core::ConsistencyModel model : models) {
        for (uint32_t window : {16u, 64u, 256u}) {
            CellResult cell;
            cell.kind = "DS";
            cell.model = std::string(core::consistencyName(model));
            cell.window = window;
            cell.label =
                cell.model + " DS-" + std::to_string(window);
            core::DynamicConfig config;
            config.model = model;
            config.window = window;
            core::DynamicProcessor proc(config);
            core::DynamicResult ref = proc.runReference(t);
            core::DynamicResult opt = proc.run(*view);
            check(static_cast<core::RunResult &>(ref) ==
                          static_cast<core::RunResult &>(opt) &&
                      ref.avg_window_occupancy ==
                          opt.avg_window_occupancy,
                  cell.label);
            cell.cycles = opt.cycles;
            cell.legacy_ips = measureIps(
                [&] { g_sink = proc.runReference(t).cycles; }, n,
                min_seconds, cell_rounds);
            cell.view_ips = measureIps(
                [&] { g_sink = proc.run(*view).cycles; }, n,
                min_seconds, cell_rounds, cold_reset);
            cells.push_back(cell);
        }
    }

    // ------------------------------------------------------------------
    // Campaign sweep: aggregate wall-clock of a figure3+figure4-style
    // phase-2 sweep over the same trace. Baseline is the pre-executor
    // path — every cell on a cold SimContext, one job per cell. The
    // executor path runs planPhase2's fused groups on worker-pinned
    // recycled contexts. Both go through the same worker pool so the
    // only variable is the executor.
    // ------------------------------------------------------------------
    std::vector<sim::ModelSpec> sweep = sim::figure3Columns();
    {
        std::vector<sim::ModelSpec> f4 = sim::figure4Columns();
        sweep.insert(sweep.end(), f4.begin(), f4.end());
    }
    size_t sweep_ds = 0;
    for (const sim::ModelSpec &spec : sweep)
        if (spec.kind == sim::ModelSpec::Kind::DS)
            ++sweep_ds;
    const std::vector<uint8_t> no_rows_done(sweep.size(), 0);

    auto runPerCell = [&](unsigned sweep_jobs,
                          std::vector<core::RunResult> *out) {
        out->assign(sweep.size(), core::RunResult{});
        runner::Runner pool(sweep_jobs);
        for (size_t s = 0; s < sweep.size(); ++s) {
            pool.submit([&, s] {
                core::SimContext cold;
                (*out)[s] = sim::runModel(*view, sweep[s], cold);
            });
        }
        pool.wait();
    };
    auto runFused = [&](unsigned sweep_jobs,
                        std::vector<core::RunResult> *out) {
        out->assign(sweep.size(), core::RunResult{});
        std::vector<sim::ExecGroup> groups = sim::planPhase2(
            sweep, no_rows_done,
            sim::adaptiveLaneCap(sweep_ds, sweep_jobs));
        runner::Runner pool(sweep_jobs);
        for (sim::ExecGroup &g : groups) {
            pool.submit([&, g = std::move(g)] {
                thread_local core::SimContext ctx;
                std::vector<core::RunResult> rows =
                    sim::runGroup(*view, sweep, g, ctx);
                for (size_t i = 0; i < g.rows.size(); ++i)
                    (*out)[g.rows[i]] = std::move(rows[i]);
            });
        }
        pool.wait();
    };

    const unsigned jobs_n = args.jobs != 0 ? args.jobs : util::hostCores();
    const size_t fused_groups_j1 =
        sim::planPhase2(sweep, no_rows_done,
                        sim::adaptiveLaneCap(sweep_ds, 1))
            .size();

    // Bit-identity first (doubles as the warmup for both paths).
    {
        std::vector<core::RunResult> percell, fused;
        runPerCell(1, &percell);
        runFused(1, &fused);
        bool same = true;
        for (size_t s = 0; s < sweep.size(); ++s)
            same = same && percell[s] == fused[s];
        if (!same) {
            std::fprintf(stderr, "MISMATCH: fused campaign sweep != "
                                 "per-cell results\n");
            ++mismatches;
        }
    }

    auto bestSeconds = [](const std::function<void()> &fn,
                          unsigned rounds) {
        double best = 1e100;
        for (unsigned round = 0; round < rounds; ++round) {
            auto start = std::chrono::steady_clock::now();
            fn();
            best = std::min(best, secondsSince(start));
        }
        return best;
    };
    auto bestSweepSeconds = [&](const std::function<void()> &fn) {
        return bestSeconds(fn, sweep_rounds);
    };

    std::vector<core::RunResult> scratch;
    double percell_j1 =
        bestSweepSeconds([&] { runPerCell(1, &scratch); });
    double fused_j1 = bestSweepSeconds([&] { runFused(1, &scratch); });
    double percell_jn = percell_j1;
    double fused_jn = fused_j1;
    if (jobs_n != 1) {
        percell_jn =
            bestSweepSeconds([&] { runPerCell(jobs_n, &scratch); });
        fused_jn =
            bestSweepSeconds([&] { runFused(jobs_n, &scratch); });
    }
    double sweep_speedup_j1 =
        fused_j1 == 0.0 ? 0.0 : percell_j1 / fused_j1;
    double sweep_speedup_jn =
        fused_jn == 0.0 ? 0.0 : percell_jn / fused_jn;

    // ------------------------------------------------------------------
    // Memory-bound regime: many ~1M-instruction synthetic cells whose
    // aggregate view footprint exceeds any LLC, so both paths read the
    // operand arrays cold from memory. Per-cell runs config-major (K
    // scalar streams of the whole footprint — by the time a config
    // returns to cell 0, every cell has been evicted); fused runs one
    // struct-of-lanes sweep per cell (a single stream). This is the
    // regime DESIGN §9's model says fusion must win: the speedup bound
    // is K for the trace traffic plus whatever the SoL lockstep
    // recovers in amortized decode.
    // ------------------------------------------------------------------
    const double stream_gb = args.stream_gb >= 0.0
        ? args.stream_gb
        : (args.small ? 0.25 : 4.0);
    const unsigned stream_rounds = args.resolvedRepeat(1);
    RegimeResult memory_bound;
    double streamed_seconds = 0.0;
    double streamed_flat_bytes = 0.0;
    double streamed_resident_bytes = 0.0;
    size_t stream_cells = 0;
    size_t stream_instr_per_cell = 0;
    size_t stream_lanes = 0;
    if (stream_gb > 0.0) {
        // The flat view's exact per-entry cost (its SoA columns) —
        // computed, not guessed, so the streamed cell count tracks
        // any future column change.
        const double view_bytes_per_instr =
            trace::TraceView::bytesPerInstr();
        stream_instr_per_cell = size_t{1} << 20; // ~32 MB/cell.
        stream_cells = std::max<size_t>(
            1,
            static_cast<size_t>(stream_gb * 1e9 /
                                view_bytes_per_instr) /
                stream_instr_per_cell);
        std::vector<std::shared_ptr<const trace::TraceView>>
            stream_views;
        stream_views.reserve(stream_cells);
        for (size_t c = 0; c < stream_cells; ++c) {
            sim::SyntheticConfig sc;
            sc.instructions = stream_instr_per_cell;
            sc.seed = c + 1;
            stream_views.push_back(
                trace::TraceView::build(sim::generateSynthetic(sc)));
        }

        std::vector<core::DynamicConfig> stream_configs;
        for (uint32_t window :
             {16u, 32u, 48u, 64u, 96u, 128u, 192u, 256u}) {
            core::DynamicConfig config;
            config.model = core::ConsistencyModel::RC;
            config.window = window;
            stream_configs.push_back(config);
        }
        stream_lanes = stream_configs.size();

        core::SimContext stream_ctx;
        auto percellPass = [&](std::vector<core::DynamicResult> *out) {
            for (const core::DynamicConfig &config : stream_configs) {
                core::DynamicProcessor proc(config);
                for (const auto &sv : stream_views) {
                    core::DynamicResult r = proc.run(*sv, stream_ctx);
                    if (out)
                        out->push_back(std::move(r));
                }
            }
        };
        auto fusedPass = [&](std::vector<core::DynamicResult> *out) {
            for (const auto &sv : stream_views) {
                std::vector<core::DynamicResult> swept =
                    core::runDynamicSweep(*sv, stream_configs,
                                          stream_ctx);
                if (out)
                    for (core::DynamicResult &r : swept)
                        out->push_back(std::move(r));
            }
        };

        // Streamed leg: re-encode each cell into the chunk-compressed
        // resident form and sweep straight from its decoded tiles.
        // Holding both forms at once is deliberate — the flat views
        // must stay alive for the fused/per-cell passes — so in-process
        // peak RSS is NOT a residency signal here; the deterministic
        // bytesResident() ratio is (worker-process RSS is measured by
        // dsmem_svc, where only one form exists).
        std::vector<std::shared_ptr<const trace::ChunkedView>>
            stream_chunked;
        stream_chunked.reserve(stream_views.size());
        for (const auto &sv : stream_views) {
            stream_chunked.push_back(
                std::make_shared<trace::ChunkedView>(*sv));
        }
        streamed_flat_bytes = static_cast<double>(stream_cells) *
            static_cast<double>(stream_instr_per_cell) *
            trace::TraceView::bytesPerInstr();
        for (const auto &cv : stream_chunked)
            streamed_resident_bytes +=
                static_cast<double>(cv->bytesResident());
        auto streamedPass = [&](std::vector<core::DynamicResult> *out) {
            for (const auto &cv : stream_chunked) {
                std::vector<core::DynamicResult> swept =
                    core::runDynamicSweep(
                        *cv, stream_configs, stream_ctx);
                if (out)
                    for (core::DynamicResult &r : swept)
                        out->push_back(std::move(r));
            }
        };

        // Bit-identity first (and the warmup for all three paths).
        // Per-cell results are config-major [k][c]; fused and streamed
        // are cell-major [c][k].
        {
            std::vector<core::DynamicResult> percell, fused, streamed;
            percellPass(&percell);
            fusedPass(&fused);
            streamedPass(&streamed);
            auto equal = [](const core::DynamicResult &a,
                            const core::DynamicResult &b) {
                return static_cast<const core::RunResult &>(a) ==
                        static_cast<const core::RunResult &>(b) &&
                    a.avg_window_occupancy == b.avg_window_occupancy;
            };
            bool same = percell.size() == fused.size();
            for (size_t k = 0; same && k < stream_lanes; ++k) {
                for (size_t c = 0; same && c < stream_cells; ++c) {
                    same = equal(percell[k * stream_cells + c],
                                 fused[c * stream_lanes + k]);
                }
            }
            if (!same) {
                std::fprintf(stderr,
                             "MISMATCH: memory-bound fused sweep != "
                             "per-cell results\n");
                ++mismatches;
            }
            bool streamed_same = streamed.size() == fused.size();
            for (size_t i = 0;
                 streamed_same && i < streamed.size(); ++i)
                streamed_same = equal(streamed[i], fused[i]);
            if (!streamed_same) {
                std::fprintf(stderr,
                             "MISMATCH: memory-bound streamed sweep "
                             "!= fused results\n");
                ++mismatches;
            }
        }

        memory_bound.percell_seconds =
            bestSeconds([&] { percellPass(nullptr); }, stream_rounds);
        memory_bound.fused_seconds =
            bestSeconds([&] { fusedPass(nullptr); }, stream_rounds);
        streamed_seconds =
            bestSeconds([&] { streamedPass(nullptr); }, stream_rounds);
    }

    WorkerRss worker_rss;
    if (stream_gb > 0.0)
        worker_rss = measureWorkerRss(args.small);

    stats::Table table(
        {"cell", "view Minstr/s", "legacy Minstr/s", "speedup"});
    for (const CellResult &cell : cells) {
        table.addRow({cell.label,
                      stats::Table::fixed(cell.view_ips / 1e6, 2),
                      stats::Table::fixed(cell.legacy_ips / 1e6, 2),
                      stats::Table::fixed(cell.speedup(), 2)});
    }
    std::printf("phase-2 hot-loop throughput — %s LU, %zu instructions"
                " (view decode %.1f ms)\n%s",
                args.small ? "small" : "full", n, view_build_ms,
                table.toString().c_str());

    // The headline cell the PR's acceptance tracks (and CI surfaces).
    for (const CellResult &cell : cells) {
        if (cell.label == "RC DS-64") {
            std::printf("headline RC DS-64: %.2fM instr/s view, "
                        "%.2fM instr/s legacy, speedup %.2fx\n",
                        cell.view_ips / 1e6, cell.legacy_ips / 1e6,
                        cell.speedup());
        }
    }
    std::printf("campaign sweep (%zu cells, %zu DS, %zu fused groups "
                "at jobs 1): per-cell %.2fs vs fused %.2fs — %.2fx "
                "at jobs 1; %.2fs vs %.2fs — %.2fx at jobs %u\n",
                sweep.size(), sweep_ds, fused_groups_j1, percell_j1,
                fused_j1, sweep_speedup_j1, percell_jn, fused_jn,
                sweep_speedup_jn, jobs_n);
    if (stream_gb > 0.0) {
        std::printf(
            "regime memory_bound (%.2f GB streamed: %zu cells x "
            "%zuK instr, %zu RC windows, simd %s): per-cell %.2fs "
            "vs fused %.2fs — %.2fx\n",
            stream_gb, stream_cells, stream_instr_per_cell >> 10,
            stream_lanes, core::solActiveIsaName(),
            memory_bound.percell_seconds, memory_bound.fused_seconds,
            memory_bound.speedup());
        std::printf(
            "regime memory_bound_streamed (chunk-compressed, %.0f MB "
            "resident of %.0f MB flat): %.2fs — "
            "%.2fx over per-cell, %.2fx over fused\n",
            streamed_resident_bytes / 1e6, streamed_flat_bytes / 1e6,
            streamed_seconds,
            streamed_seconds == 0.0
                ? 0.0
                : memory_bound.percell_seconds / streamed_seconds,
            streamed_seconds == 0.0
                ? 0.0
                : memory_bound.fused_seconds / streamed_seconds);
        if (worker_rss.ok()) {
            std::printf(
                "worker RSS probe (%zuK-instr synthetic cell, RC "
                "DS-64, separate processes): flat %.1f MB vs "
                "streamed %.1f MB — %.2fx\n",
                worker_rss.instructions >> 10,
                static_cast<double>(worker_rss.flat_rss) / 1e6,
                static_cast<double>(worker_rss.streamed_rss) / 1e6,
                worker_rss.ratio());
        } else {
            std::printf("worker RSS probe unavailable on this host\n");
        }
    }

    std::ofstream out(args.json_path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n",
                     args.json_path.c_str());
        return 1;
    }
    out << "{\n  \"schema_version\": 5,\n"
        << "  \"bench\": \"bench_hotloop\",\n"
        << "  \"app\": \"LU\",\n"
        << "  \"small\": " << (args.small ? "true" : "false") << ",\n"
        << "  \"cold\": " << (args.cold ? "true" : "false") << ",\n"
        << "  \"host_cpu\": \"" << jsonEscape(util::hostCpuModel())
        << "\",\n"
        << "  \"host_cores\": " << util::hostCores() << ",\n"
        << "  \"host_l2_bytes\": " << util::hostCacheBytes(2) << ",\n"
        << "  \"host_l3_bytes\": " << util::hostCacheBytes(3) << ",\n"
        << "  \"peak_rss_bytes\": " << util::peakRssBytes() << ",\n"
        << "  \"simd_isa\": \"" << core::solIsaName() << "\",\n"
        << "  \"simd_active\": \"" << core::solActiveIsaName()
        << "\",\n"
        << "  \"trace_records\": " << n << ",\n"
        << "  \"cell_rounds\": " << cell_rounds << ",\n"
        << "  \"sweep_rounds\": " << sweep_rounds << ",\n"
        << "  \"instructions\": " << n << ",\n"
        << "  \"view_build_ms\": " << jsonDouble(view_build_ms)
        << ",\n"
        << "  \"campaign_sweep\": {\"cells\": " << sweep.size()
        << ", \"ds_cells\": " << sweep_ds
        << ", \"fused_groups_jobs1\": " << fused_groups_j1
        << ", \"jobs_n\": " << jobs_n << ",\n"
        << "                     \"percell_seconds_jobs1\": "
        << jsonDouble(percell_j1)
        << ", \"fused_seconds_jobs1\": " << jsonDouble(fused_j1)
        << ", \"speedup_jobs1\": " << jsonDouble(sweep_speedup_j1)
        << ",\n"
        << "                     \"percell_seconds_jobsN\": "
        << jsonDouble(percell_jn)
        << ", \"fused_seconds_jobsN\": " << jsonDouble(fused_jn)
        << ", \"speedup_jobsN\": " << jsonDouble(sweep_speedup_jn)
        << "},\n"
        << "  \"regimes\": {";
    if (stream_gb > 0.0) {
        out << "\n    \"memory_bound\": {\"stream_gb\": "
            << jsonDouble(stream_gb)
            << ", \"cells\": " << stream_cells
            << ", \"instructions_per_cell\": " << stream_instr_per_cell
            << ", \"lanes\": " << stream_lanes
            << ",\n                     \"percell_seconds\": "
            << jsonDouble(memory_bound.percell_seconds)
            << ", \"fused_seconds\": "
            << jsonDouble(memory_bound.fused_seconds)
            << ", \"fused_speedup\": "
            << jsonDouble(memory_bound.speedup()) << "}";
        // fused_speedup here is per-cell over streamed (check_perf
        // auto-floors that key per regime); streamed_over_fused is the
        // headline chunk-decode win vs the already-fused flat sweep.
        const double streamed_over_percell = streamed_seconds == 0.0
            ? 0.0
            : memory_bound.percell_seconds / streamed_seconds;
        const double streamed_over_fused = streamed_seconds == 0.0
            ? 0.0
            : memory_bound.fused_seconds / streamed_seconds;
        const double resident_ratio = streamed_flat_bytes == 0.0
            ? 0.0
            : streamed_resident_bytes / streamed_flat_bytes;
        out << ",\n    \"memory_bound_streamed\": "
            << "{\"streamed_seconds\": " << jsonDouble(streamed_seconds)
            << ", \"fused_speedup\": "
            << jsonDouble(streamed_over_percell)
            << ", \"streamed_over_fused\": "
            << jsonDouble(streamed_over_fused)
            << ",\n                              \"flat_bytes\": "
            << jsonDouble(streamed_flat_bytes)
            << ", \"chunked_bytes_resident\": "
            << jsonDouble(streamed_resident_bytes)
            << ", \"resident_ratio\": " << jsonDouble(resident_ratio)
            << "}";
        // Worker footprints from the --rss-probe children; all-zero
        // (rss_ratio 0) when the probe could not run on this host.
        out << ",\n    \"worker_rss\": {\"probe_instructions\": "
            << worker_rss.instructions
            << ", \"flat_peak_rss_bytes\": " << worker_rss.flat_rss
            << ", \"streamed_peak_rss_bytes\": "
            << worker_rss.streamed_rss
            << ",\n                   \"flat_view_bytes\": "
            << worker_rss.flat_view_bytes
            << ", \"streamed_view_bytes\": "
            << worker_rss.streamed_view_bytes
            << ", \"rss_ratio\": " << jsonDouble(worker_rss.ratio())
            << "}";
    }
    out << "\n  },\n"
        << "  \"cells\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellResult &cell = cells[i];
        out << "    {\"label\": \"" << cell.label << "\", \"kind\": \""
            << cell.kind << "\", \"model\": \"" << cell.model
            << "\", \"window\": " << cell.window
            << ", \"view_instr_per_sec\": "
            << jsonDouble(cell.view_ips)
            << ", \"legacy_instr_per_sec\": "
            << jsonDouble(cell.legacy_ips)
            << ", \"speedup\": " << jsonDouble(cell.speedup())
            << ", \"cycles\": " << cell.cycles << "}"
            << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";

    if (mismatches != 0) {
        std::fprintf(stderr, "%d cell(s) diverged from reference\n",
                     mismatches);
        return 1;
    }
    return 0;
}
