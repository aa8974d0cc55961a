#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "e2e.h"
#include "runner/journal.h"
#include "runner/trace_store.h"
#include "sim/executor.h"
#include "sim/stream_exec.h"
#include "sim/trace_bundle.h"
#include "svc/coordinator.h"
#include "svc/protocol.h"

namespace dsmem::e2e {

namespace fs = std::filesystem;

namespace {

constexpr int kTracedPasses = 5;

/** Every per-layer metric, in report order, with its unit. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"phase1.gen_s", "s"},
    {"phase1.minstr_s", "Minstr/s"},
    {"phase1.critical_app_s", "s"},
    {"store.write_s", "s"},
    {"store.read_s", "s"},
    {"store.read_mb_s", "MB/s"},
    {"store.bundle_mb", "MB"},
    {"chunk.load_s", "s"},
    {"chunk.decode_s", "s"},
    {"chunk.decode_minstr_s", "Minstr/s"},
    {"chunk.resident_ratio", "ratio"},
    {"phase2.plan_s", "s"},
    {"phase2.exec_s", "s"},
    {"phase2.ds_exec_s", "s"},
    {"phase2.static_exec_s", "s"},
    {"phase2.lane_minstr_s", "Minstr/s"},
    {"phase2.groups", "count"},
    {"phase2.fused_cell_frac", "ratio"},
    {"phase2.stream_exec_s", "s"},
    {"phase2.stream_over_flat", "ratio"},
    {"phase2.decode_threads", "count"},
    {"journal.append_row_ms_p50", "ms"},
    {"journal.rows", "count"},
    {"sink.json_s", "s"},
    {"svc.frame_us", "us"},
    {"svc.over_inprocess", "ratio"},
    {"svc.useful_frac", "ratio"},
    {"svc.stolen", "count"},
    {"svc.worker_peak_rss_mb", "MB"},
    {"campaign.inproc_j1_s", "s"},
    {"campaign.unaccounted_frac", "ratio"},
    {"campaign.parallel_eff", "ratio"},
};

using Values = std::map<std::string, double>;
using Rows = std::vector<std::vector<core::RunResult>>;

/** fork + execv @p args with stdout on /dev/null; the exit status. */
int
runProgram(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        const int null = ::open("/dev/null", O_WRONLY);
        if (null >= 0)
            ::dup2(null, STDOUT_FILENO);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/**
 * One serial re-drive of every layer. Each layer is called through
 * the public entry point the campaign itself uses, on the inputs the
 * workloads use (the seed's app order and synthetic trace), and every
 * result is checked against the golden digests or the flat path.
 */
class Layers
{
  public:
    Layers(const Options &opts, const std::string &dir, SpanLog &log,
           bool cold)
        : opts_(opts), log_(log), cold_(cold), apps_(appOrder(opts.seed)),
          specs_(sim::figure3Columns()), stream_specs_(streamSpecs()),
          stream_group_(streamGroup()), dir_(dir),
          store_(dir + "/layers-store"), synth_(dir + "/layers-synth.dsmb"),
          socket_(fs::proximate(dir + "/layers-svc.sock").string())
    {
        writeSyntheticBundle(opts_, synth_);

        runner::Campaign decl("bench_figure3", campaignOptions(store_, 1));
        declareFigure3(decl, opts_);
        signature_ = decl.signature();
    }

    Values pass()
    {
        Values v;
        Rows rows;
        {
            const std::vector<sim::ViewBundle> views = store(v, phase1(v));
            rows = phase2(v, views);
        }
        chunk(v);
        stream(v);
        journal(v, rows);
        service(v, rows);
        campaigns(v);
        return v;
    }

    size_t cells = 0;  ///< Cells (and frames) checked.
    size_t failed = 0; ///< ...that disagreed with their reference.

  private:
    std::string appName(size_t i) const
    {
        return std::string(sim::appName(apps_[i]));
    }

    /** Count a figure3 cell set and compare it with the golden digest. */
    void checkFigure3(const Iteration &it)
    {
        const size_t n = apps_.size() * specs_.size();
        cells += n;
        if (it.cells_failed > 0 ||
            (!opts_.record &&
             hex(digestOf(it.cells)) != opts_.golden_fig3))
            failed += n;
    }

    std::vector<sim::TraceBundle> phase1(Values &v)
    {
        std::vector<sim::TraceBundle> bundles;
        double total = 0.0, slowest = 0.0, instr = 0.0;
        for (size_t i = 0; i < apps_.size(); ++i) {
            SpanLog::Scope span(log_, "phase1.generate", "apps/mp/memsys",
                                appName(i));
            bundles.push_back(sim::generateTrace(
                apps_[i], memsys::MemoryConfig{}, opts_.smoke));
            const double t = span.stop();
            total += t;
            slowest = std::max(slowest, t);
            instr += static_cast<double>(
                bundles.back().stats.instructions);
        }
        v["phase1.gen_s"] = total;
        v["phase1.minstr_s"] = instr / total / 1e6;
        v["phase1.critical_app_s"] = slowest;
        return bundles;
    }

    /** Write every bundle the way TraceStore does, then read it back. */
    std::vector<sim::ViewBundle>
    store(Values &v, const std::vector<sim::TraceBundle> &bundles)
    {
        fs::remove_all(store_);
        fs::create_directories(store_);
        double write = 0.0, read = 0.0;
        uint64_t bytes = 0;
        std::vector<std::string> paths;
        for (size_t i = 0; i < apps_.size(); ++i) {
            const std::string path = store_ + "/" +
                runner::TraceStore::fileName(
                    apps_[i], memsys::MemoryConfig{}, opts_.smoke);
            const std::string tmp = path + ".tmp";
            SpanLog::Scope span(log_, "store.write", "runner/trace",
                                appName(i));
            {
                std::ofstream out(tmp, std::ios::binary);
                runner::saveBundle(bundles[i], out);
                out.flush();
                if (!out)
                    throw std::runtime_error("cannot write " + tmp);
            }
            fs::rename(tmp, path);
            write += span.stop();
            bytes += fs::file_size(path);
            paths.push_back(path);
        }
        std::vector<sim::ViewBundle> views;
        for (size_t i = 0; i < paths.size(); ++i) {
            SpanLog::Scope span(log_, "store.read", "runner/trace",
                                appName(i));
            std::ifstream in(paths[i], std::ios::binary);
            views.push_back(
                runner::loadBundleView(in, sim::StreamExec::Auto));
            read += span.stop();
        }
        const double mb = static_cast<double>(bytes) / 1e6;
        v["store.write_s"] = write;
        v["store.read_s"] = read;
        v["store.bundle_mb"] = mb;
        v["store.read_mb_s"] = mb / read;
        return views;
    }

    /**
     * Load the synthetic bundle chunk-compressed and decode every
     * chunk. StreamExec::On, so the layer is measured on any host;
     * on one whose LLC the flat trace spills, Auto chooses the same.
     */
    void chunk(Values &v)
    {
        sim::ViewBundle vb;
        {
            SpanLog::Scope span(log_, "chunk.load", "trace");
            std::ifstream in(synth_, std::ios::binary);
            vb = runner::loadBundleView(in, sim::StreamExec::On);
            v["chunk.load_s"] = span.stop();
        }
        const trace::ChunkedView &cv = *vb.chunked;
        trace::TraceTile tile;
        SpanLog::Scope span(log_, "chunk.decode", "trace");
        for (size_t c = 0; c < cv.chunkCount(); ++c)
            cv.decodeChunk(c, tile);
        const double decode = span.stop();
        const double n = static_cast<double>(cv.size());
        v["chunk.decode_s"] = decode;
        v["chunk.decode_minstr_s"] = n / decode / 1e6;
        v["chunk.resident_ratio"] =
            static_cast<double>(cv.bytesResident()) /
            (n * trace::TraceView::bytesPerInstr());
    }

    /**
     * Plan and execute figure3's phase 2 the way a one-job campaign
     * does (adaptiveLaneCap at jobs = 1), one group at a time.
     */
    Rows phase2(Values &v, const std::vector<sim::ViewBundle> &views)
    {
        size_t ds_rows = 0;
        for (const sim::ModelSpec &spec : specs_)
            ds_rows += spec.kind == sim::ModelSpec::Kind::DS;
        const size_t cap = sim::adaptiveLaneCap(ds_rows * apps_.size(), 1);
        const std::vector<uint8_t> none(specs_.size(), 0);

        Rows rows(apps_.size(), std::vector<core::RunResult>(specs_.size()));
        double plan = 0.0, ds = 0.0, stat = 0.0, instr = 0.0;
        size_t groups = 0, fused = 0, total = 0;
        Iteration it;
        for (size_t i = 0; i < apps_.size(); ++i) {
            std::vector<sim::ExecGroup> planned;
            {
                SpanLog::Scope span(log_, "phase2.plan", "sim", appName(i));
                planned = sim::planPhase2(specs_, none, cap);
                plan += span.stop();
            }
            for (const sim::ExecGroup &g : planned) {
                const bool is_ds =
                    specs_[g.rows.front()].kind == sim::ModelSpec::Kind::DS;
                SpanLog::Scope span(log_,
                                    is_ds ? "phase2.ds_group"
                                          : "phase2.static_group",
                                    "sim/core", appName(i));
                const std::vector<core::RunResult> r =
                    sim::runGroup(views[i], specs_, g, ctx_);
                (is_ds ? ds : stat) += span.stop();
                for (size_t k = 0; k < g.rows.size(); ++k) {
                    rows[i][g.rows[k]] = r.at(k);
                    instr += static_cast<double>(r.at(k).instructions);
                }
                ++groups;
                total += g.rows.size();
                if (g.fused)
                    fused += g.rows.size();
            }
            for (size_t s = 0; s < specs_.size(); ++s) {
                const std::string key = appName(i) + "|" + specs_[s].label();
                it.cells[key] = cellHash(key, rows[i][s]);
            }
        }
        it.cells_failed = apps_.size() * specs_.size() - total;
        checkFigure3(it);
        v["phase2.plan_s"] = plan;
        v["phase2.exec_s"] = ds + stat;
        v["phase2.ds_exec_s"] = ds;
        v["phase2.static_exec_s"] = stat;
        v["phase2.lane_minstr_s"] = instr / (ds + stat) / 1e6;
        v["phase2.groups"] = static_cast<double>(groups);
        v["phase2.fused_cell_frac"] =
            static_cast<double>(fused) / static_cast<double>(total);
        return rows;
    }

    /** The stream_sweep group on the chunked bundle, then on flatten(). */
    void stream(Values &v)
    {
        std::ifstream in(synth_, std::ios::binary);
        const sim::ViewBundle vb =
            runner::loadBundleView(in, sim::StreamExec::On);
        std::vector<core::RunResult> streamed, flat;
        double stream_s = 0.0, flat_s = 0.0;
        {
            SpanLog::Scope span(log_, "phase2.stream", "sim");
            streamed =
                sim::runGroup(vb, stream_specs_, stream_group_, ctx_);
            stream_s = span.stop();
        }
        {
            const std::shared_ptr<const trace::TraceView> view =
                vb.chunked->flatten();
            SpanLog::Scope span(log_, "phase2.flat", "sim");
            flat = sim::runGroup(*view, stream_specs_, stream_group_, ctx_);
            flat_s = span.stop();
        }
        CellHashes hashes;
        for (size_t s = 0; s < stream_specs_.size(); ++s) {
            const std::string key = "synthetic|" + stream_specs_[s].label();
            hashes[key] = cellHash(key, streamed.at(s));
            failed += !(streamed.at(s) == flat.at(s));
        }
        cells += stream_specs_.size();
        if (!opts_.record && !opts_.golden_stream.empty() &&
            hex(digestOf(hashes)) != opts_.golden_stream)
            failed += stream_specs_.size();
        v["phase2.stream_exec_s"] = stream_s;
        v["phase2.stream_over_flat"] = stream_s / flat_s;
        v["phase2.decode_threads"] =
            static_cast<double>(sim::streamOptions().decode_threads);
    }

    void journal(Values &v, const Rows &rows)
    {
        const std::string path = dir_ + "/layers-journal.jsonl";
        runner::CampaignJournal journal;
        std::string err;
        if (!journal.open(path, "bench_figure3", signature_, false, &err))
            throw std::runtime_error("journal: " + err);
        std::vector<double> appends;
        for (size_t i = 0; i < rows.size(); ++i) {
            for (size_t s = 0; s < rows[i].size(); ++s) {
                runner::JournalRow row;
                row.unit = i;
                row.spec = s;
                row.label = specs_[s].label();
                row.result = rows[i][s];
                SpanLog::Scope span(log_, "journal.append_row", "runner");
                journal.appendRow(row);
                appends.push_back(span.stop());
            }
        }
        journal.close();
        if (journal.failed())
            throw std::runtime_error("journal: " + journal.failure());
        v["journal.append_row_ms_p50"] = median(appends) * 1e3;
        v["journal.rows"] = static_cast<double>(appends.size());
    }

    /**
     * The result frame codec, then the warm campaign through the
     * coordinator and in-process at the same parallelism (two), both
     * with a fresh journal, so their ratio is the service layer alone.
     */
    void service(Values &v, const Rows &rows)
    {
        {
            size_t frames = 0;
            SpanLog::Scope span(log_, "svc.frame", "svc");
            for (size_t i = 0; i < rows.size(); ++i) {
                for (size_t s = 0; s < rows[i].size(); ++s) {
                    svc::ResultMsg msg;
                    msg.unit = static_cast<uint32_t>(i);
                    msg.spec = static_cast<uint32_t>(s);
                    msg.seq = ++frames;
                    msg.result = rows[i][s];
                    svc::ResultMsg back;
                    failed += !svc::decodeResult(svc::encodeResult(msg),
                                                 back) ||
                        !(back.result == msg.result);
                }
            }
            cells += frames;
            v["svc.frame_us"] =
                span.stop() / static_cast<double>(frames) * 1e6;
        }

        const std::string journal = dir_ + "/layers-svc.jsonl";
        runner::RunnerOptions ro = campaignOptions(store_, kSvcWorkers);
        ro.journal_path = journal;

        fs::remove(journal);
        double svc_s = 0.0;
        svc::ServiceStats stats;
        {
            runner::Campaign campaign("bench_figure3", ro);
            declareFigure3(campaign, opts_);
            svc::ServiceOptions so;
            so.workers = kSvcWorkers;
            so.worker_exe = DSMEM_SVC_EXE;
            so.socket_path = socket_;
            so.print_workers = false;
            svc::Coordinator coordinator(campaign, so);
            SpanLog::Scope span(log_, "svc.coordinator.run", "svc");
            coordinator.run();
            svc_s = span.stop();
            stats = coordinator.stats();
            checkFigure3(collect(campaign));
        }

        fs::remove(journal);
        double inproc_s = 0.0;
        {
            runner::Campaign campaign("bench_figure3", ro);
            declareFigure3(campaign, opts_);
            SpanLog::Scope span(log_, "campaign.inproc_j2", "runner");
            campaign.run();
            inproc_s = span.stop();
            checkFigure3(collect(campaign));
        }

        v["svc.over_inprocess"] = svc_s / inproc_s;
        v["svc.useful_frac"] = stats.dispatched == 0
            ? 0.0
            : static_cast<double>(stats.results) /
                static_cast<double>(stats.dispatched);
        v["svc.stolen"] = static_cast<double>(stats.stolen);
        v["svc.worker_peak_rss_mb"] =
            static_cast<double>(cliWorkerPeakRss()) / 1e6;
    }

    /**
     * Worker peak RSS from `dsmem_svc run` on the same store. A forked
     * worker's peak starts at its parent's RSS at fork time, so the
     * in-process coordinator above (this process holds the layers'
     * heap) would report its own footprint, not the worker's; the
     * service CLI is the lean parent users run.
     */
    uint64_t cliWorkerPeakRss()
    {
        const std::string stats = dir_ + "/layers-svc-stats.json";
        const std::string socket =
            fs::proximate(dir_ + "/layers-cli.sock").string();
        const std::vector<std::string> args = {
            DSMEM_SVC_EXE, "run", "--campaign", "figure3",
            opts_.smoke ? "--small" : "--full", "--workers",
            std::to_string(kSvcWorkers), "--trace-dir", store_, "--socket",
            socket, "--stats-json", stats, "--quiet"};
        SpanLog::Scope span(log_, "svc.cli.run", "svc");
        if (runProgram(args) != 0)
            throw std::runtime_error("dsmem_svc run failed");
        span.stop();
        std::ifstream in(stats);
        const std::string json((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        const std::string key = "\"peak_rss_bytes\":";
        const size_t at = json.find(key);
        if (at == std::string::npos)
            throw std::runtime_error("no peak_rss_bytes in " + stats);
        return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
    }

    /**
     * In-process campaigns at one job and at loadJobs(), cold or warm
     * like the workload being traced. The one-job wall minus the layer
     * spans it is made of is what no span accounts for.
     */
    void campaigns(Values &v)
    {
        const unsigned jobs = loadJobs();
        const std::string cold_store = dir_ + "/layers-cold";
        auto runAt = [&](unsigned j, const char *name, bool sink) {
            if (cold_)
                fs::remove_all(cold_store);
            runner::Campaign campaign(
                "bench_figure3",
                campaignOptions(cold_ ? cold_store : store_, j));
            declareFigure3(campaign, opts_);
            SpanLog::Scope span(log_, name, "runner");
            campaign.run();
            const double wall = span.stop();
            checkFigure3(collect(campaign));
            if (sink) {
                SpanLog::Scope json(log_, "sink.json", "runner");
                if (!campaign.writeJson(dir_ + "/layers-sink.json"))
                    throw std::runtime_error("cannot write the JSON sink");
                v["sink.json_s"] = json.stop();
            }
            return wall;
        };
        const double j1 = runAt(1, "campaign.inproc_j1", true);
        const double jn = runAt(jobs, "campaign.inproc_jn", false);

        const double accounted =
            (cold_ ? v.at("phase1.gen_s") + v.at("store.write_s")
                   : v.at("store.read_s")) +
            v.at("phase2.plan_s") + v.at("phase2.exec_s");
        v["campaign.inproc_j1_s"] = j1;
        v["campaign.unaccounted_frac"] = (j1 - accounted) / j1;
        v["campaign.parallel_eff"] = j1 / (jn * jobs);
    }

    static constexpr unsigned kSvcWorkers = 2;

    const Options &opts_;
    SpanLog &log_;
    const bool cold_;
    const std::vector<sim::AppId> apps_;
    const std::vector<sim::ModelSpec> specs_;
    const std::vector<sim::ModelSpec> stream_specs_;
    const sim::ExecGroup stream_group_;
    const std::string dir_;
    const std::string store_;
    const std::string synth_;
    const std::string socket_;
    uint64_t signature_ = 0;
    core::SimContext ctx_;
};

} // namespace

LayerReport
measureLayers(const Options &opts, const std::string &dir, SpanLog &log,
              bool cold)
{
    Layers layers(opts, dir, log, cold);
    std::map<std::string, std::vector<double>> samples;
    const bool traced = log.on;
    for (int p = 0; p <= kTracedPasses; ++p) {
        // Pass 0 is the unrecorded warm-up.
        log.on = traced && p > 0;
        log.pass = p;
        const Values v = layers.pass();
        if (p > 0)
            for (const auto &[name, value] : v)
                samples[name].push_back(value);
    }
    log.on = traced;
    log.pass = -1;

    LayerReport report;
    for (const auto &[name, unit] : kLayerMetrics) {
        auto found = samples.find(name);
        if (found == samples.end())
            throw std::logic_error(std::string("layer metric ") + name +
                                   " was not measured");
        report.metrics.push_back(Metric{name, median(found->second), unit});
    }
    report.cells = layers.cells;
    report.failed = layers.failed;
    return report;
}

} // namespace dsmem::e2e
