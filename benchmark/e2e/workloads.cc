#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include <sys/wait.h>
#include <unistd.h>

#include "e2e.h"
#include "runner/trace_store.h"
#include "sim/executor.h"
#include "sim/synthetic.h"
#include "svc/coordinator.h"
#include "trace/trace_stats.h"
#include "util/byte_io.h"
#include "util/sysinfo.h"

namespace dsmem::e2e {

namespace fs = std::filesystem;

uint64_t
cellHash(const std::string &key, const core::RunResult &r)
{
    const uint64_t fields[] = {
        r.breakdown.busy,  r.breakdown.sync,  r.breakdown.read,
        r.breakdown.write, r.breakdown.pipeline, r.cycles,
        r.instructions,    r.branches,        r.mispredicts,
        r.read_misses,
    };
    uint64_t h = util::fnv1aUpdate(util::kFnvOffset, key.data(),
                                   key.size());
    for (uint64_t f : fields) {
        unsigned char le[8];
        for (int i = 0; i < 8; ++i)
            le[i] = static_cast<unsigned char>(f >> (8 * i));
        h = util::fnv1aUpdate(h, le, sizeof(le));
    }
    return h;
}

uint64_t
digestOf(const CellHashes &cells)
{
    // The map iterates in key order, so completion order never enters.
    uint64_t h = util::kFnvOffset;
    for (const auto &[key, cell] : cells) {
        h = util::fnv1aUpdate(h, key.data(), key.size());
        h = util::fnv1aUpdate(h, &cell, sizeof(cell));
    }
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

unsigned
loadJobs()
{
    return std::min(4u, util::hostCores());
}

std::vector<sim::AppId>
appOrder(uint64_t seed)
{
    std::vector<sim::AppId> apps(sim::kAllApps.begin(),
                                 sim::kAllApps.end());
    uint64_t x = seed;
    for (size_t i = apps.size() - 1; i > 0; --i) {
        x += 0x9e3779b97f4a7c15ull; // splitmix64
        uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        std::swap(apps[i], apps[z % (i + 1)]);
    }
    return apps;
}

void
declareFigure3(runner::Campaign &campaign, const Options &opts)
{
    const std::vector<sim::ModelSpec> specs = sim::figure3Columns();
    for (sim::AppId app : appOrder(opts.seed))
        campaign.add(app, specs, memsys::MemoryConfig{}, opts.smoke);
}

runner::RunnerOptions
campaignOptions(const std::string &store, unsigned jobs)
{
    runner::RunnerOptions ro;
    ro.jobs = jobs;
    ro.trace_dir = store;
    // Explicit, so the residency policy never comes from the
    // environment (main() also refuses to start with it set).
    ro.stream_exec = sim::StreamExec::Auto;
    return ro;
}

Iteration
collect(const runner::Campaign &campaign)
{
    Iteration it;
    for (size_t u = 0; u < campaign.size(); ++u) {
        const runner::UnitResult &res = campaign.result(u);
        const std::vector<sim::ModelSpec> &specs = campaign.unitSpecs(u);
        const std::string app(sim::appName(campaign.unitApp(u)));
        for (size_t s = 0; s < specs.size(); ++s) {
            if (s >= res.row_done.size() || !res.row_done[s] ||
                s >= res.rows.size()) {
                ++it.cells_failed;
                continue;
            }
            const core::RunResult &r = res.rows[s].result;
            const std::string key = app + "|" + specs[s].label();
            it.cells[key] = cellHash(key, r);
            it.instructions += r.instructions;
        }
    }
    return it;
}

std::vector<sim::ModelSpec>
streamSpecs()
{
    std::vector<sim::ModelSpec> specs;
    for (uint32_t window : {16u, 32u, 48u, 64u, 96u, 128u, 192u, 256u})
        specs.push_back(
            sim::ModelSpec::ds(core::ConsistencyModel::RC, window));
    return specs;
}

sim::ExecGroup
streamGroup()
{
    sim::ExecGroup group;
    for (size_t s = 0; s < streamSpecs().size(); ++s)
        group.rows.push_back(s);
    group.fused = true;
    return group;
}

size_t
streamInstructions(const Options &opts)
{
    return opts.smoke ? size_t{1} << 18 : size_t{1} << 22;
}

void
writeSyntheticBundle(const Options &opts, const std::string &path)
{
    sim::SyntheticConfig sc;
    sc.instructions = streamInstructions(opts);
    sc.seed = opts.seed;
    sim::TraceBundle tb;
    tb.trace = sim::generateSynthetic(sc);
    tb.stats = trace::computeStats(tb.trace);
    tb.verified = true;
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        runner::saveBundle(tb, out);
        out.flush();
        if (!out)
            throw std::runtime_error("cannot write " + tmp);
    }
    fs::rename(tmp, path);
}

std::string
inChild(const std::function<std::string()> &body)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error(std::string("pipe: ") +
                                 std::strerror(errno));
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw std::runtime_error(std::string("fork: ") +
                                 std::strerror(errno));
    }
    if (pid == 0) {
        ::close(fds[0]);
        int code = 0;
        try {
            const std::string out = body();
            const char *p = out.data();
            size_t left = out.size();
            while (left > 0) {
                const ssize_t n = ::write(fds[1], p, left);
                if (n < 0 && errno == EINTR)
                    continue;
                if (n <= 0) {
                    code = 1;
                    break;
                }
                p += n;
                left -= static_cast<size_t>(n);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "dsmem_e2e: set-up child: %s\n",
                         e.what());
            code = 1;
        }
        ::_exit(code);
    }
    ::close(fds[1]);
    std::string out;
    char buf[256];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n > 0)
            out.append(buf, static_cast<size_t>(n));
        else if (n < 0 && errno == EINTR)
            continue;
        else
            break;
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("set-up child process failed");
    return out;
}

namespace {

/**
 * fig3_cold and fig3_warm: the full figure3 campaign in-process.
 *
 * Cold runs it into a fresh, empty store each iteration: the only
 * workload where phase-1 generation and store writes are on the
 * measured path. Warm runs it against a store filled during set-up,
 * so phase 1 is skipped and store reads feed the phase-2 executors;
 * the fill runs in a child so its generation memory never counts
 * toward this process's peak RSS.
 */
class Fig3 : public Workload
{
  public:
    Fig3(const Options &opts, const std::string &dir, SpanLog &log,
         bool cold)
        : opts_(opts), store_(dir + "/store"), log_(log), cold_(cold)
    {
    }

    void setup() override
    {
        if (cold_)
            return;
        fs::remove_all(store_);
        inChild([this] {
            runner::Campaign campaign(
                "bench_figure3", campaignOptions(store_, loadJobs()));
            declareFigure3(campaign, opts_);
            campaign.run();
            if (!campaign.ok())
                throw std::runtime_error(campaign.failureSummary());
            return std::string();
        });
    }

    Iteration iterate() override
    {
        if (cold_)
            fs::remove_all(store_);
        SpanLog::Scope span(log_, "campaign.run", "runner");
        runner::Campaign campaign("bench_figure3",
                                  campaignOptions(store_, loadJobs()));
        declareFigure3(campaign, opts_);
        campaign.run();
        const double wall = span.stop();
        Iteration it = collect(campaign);
        it.wall_s = wall;
        return it;
    }

    size_t cells() const override
    {
        return sim::kAllApps.size() * sim::figure3Columns().size();
    }

  protected:
    const Options &opts_;
    const std::string store_;
    SpanLog &log_;

  private:
    const bool cold_;
};

/**
 * fig3_svc: the warm campaign through the sharded service — two forked
 * worker processes of this build's dsmem_svc, AF_UNIX frames, a store
 * load in each worker and a fresh journal (one fsync per row) each
 * iteration.
 */
class Fig3Svc : public Fig3
{
  public:
    Fig3Svc(const Options &opts, const std::string &dir, SpanLog &log)
        : Fig3(opts, dir, log, false), journal_(dir + "/journal.jsonl"),
          // Relative to the working directory the workers inherit, so
          // a deep checkout path cannot overflow sun_path.
          socket_(fs::proximate(dir + "/svc.sock").string())
    {
    }

    Iteration iterate() override
    {
        fs::remove(journal_);
        SpanLog::Scope span(log_, "svc.coordinator.run", "svc");
        runner::RunnerOptions ro = campaignOptions(store_, kWorkers);
        ro.journal_path = journal_;
        runner::Campaign campaign("bench_figure3", ro);
        declareFigure3(campaign, opts_);
        svc::ServiceOptions so;
        so.workers = kWorkers;
        so.worker_exe = DSMEM_SVC_EXE;
        so.socket_path = socket_;
        so.print_workers = false;
        svc::Coordinator coordinator(campaign, so);
        coordinator.run();
        const double wall = span.stop();
        Iteration it = collect(campaign);
        it.wall_s = wall;
        return it;
    }

  private:
    static constexpr unsigned kWorkers = 2;
    const std::string journal_;
    const std::string socket_;
};

/**
 * stream_sweep: one synthetic trace swept over eight RC DS windows in
 * one fused runGroup on its chunk-compressed bundle. The child that
 * writes the bundle is the only process that ever holds the flat
 * trace; this one loads it with the Auto residency policy.
 */
class StreamSweep : public Workload
{
  public:
    StreamSweep(const Options &opts, const std::string &dir, SpanLog &log)
        : opts_(opts), bundle_(dir + "/synthetic.dsmb"), log_(log),
          specs_(streamSpecs()), group_(streamGroup()),
          // Smoke traces fit any LLC; force the chunked path there so
          // the plumbing under test is the one the full run measures.
          mode_(opts.smoke ? sim::StreamExec::On : sim::StreamExec::Auto)
    {
    }

    void setup() override
    {
        inChild([this] {
            writeSyntheticBundle(opts_, bundle_);
            return std::string();
        });
        std::ifstream in(bundle_, std::ios::binary);
        vb_ = runner::loadBundleView(in, mode_);
        if (!vb_.chunked && !warned_) {
            warned_ = true;
            std::fprintf(stderr,
                         "dsmem_e2e: warning: the %zu-instruction "
                         "trace fits this host's stream threshold "
                         "(%zu bytes); stream_sweep runs flat\n",
                         streamInstructions(opts_),
                         sim::streamThresholdBytes());
        }
    }

    Iteration iterate() override
    {
        SpanLog::Scope span(log_, "sim.runGroup", "sim");
        const std::vector<core::RunResult> results =
            sim::runGroup(vb_, specs_, group_, ctx_);
        const double wall = span.stop();
        Iteration it = cellsOf(results);
        it.wall_s = wall;
        return it;
    }

    size_t cells() const override { return specs_.size(); }

    /** Per-cell runModel on the flat view, in a child process. */
    uint64_t oracle() override
    {
        const std::string digest = inChild([this] {
            std::ifstream in(bundle_, std::ios::binary);
            sim::ViewBundle flat =
                runner::loadBundleView(in, sim::StreamExec::Off);
            std::vector<core::RunResult> results;
            for (const sim::ModelSpec &spec : specs_)
                results.push_back(sim::runModel(*flat.view, spec));
            return hex(digestOf(cellsOf(results).cells));
        });
        return std::strtoull(digest.c_str(), nullptr, 16);
    }

  private:
    Iteration cellsOf(const std::vector<core::RunResult> &results) const
    {
        Iteration it;
        for (size_t s = 0; s < specs_.size(); ++s) {
            if (s >= results.size()) {
                ++it.cells_failed;
                continue;
            }
            const std::string key = "synthetic|" + specs_[s].label();
            it.cells[key] = cellHash(key, results[s]);
            it.instructions += results[s].instructions;
        }
        return it;
    }

    const Options &opts_;
    const std::string bundle_;
    SpanLog &log_;
    const std::vector<sim::ModelSpec> specs_;
    const sim::ExecGroup group_;
    const sim::StreamExec mode_;
    sim::ViewBundle vb_;
    core::SimContext ctx_;
    bool warned_ = false;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const Options &opts, const std::string &dir, SpanLog &log)
{
    if (opts.workload == "fig3_cold")
        return std::make_unique<Fig3>(opts, dir, log, true);
    if (opts.workload == "fig3_warm")
        return std::make_unique<Fig3>(opts, dir, log, false);
    if (opts.workload == "fig3_svc")
        return std::make_unique<Fig3Svc>(opts, dir, log);
    if (opts.workload == "stream_sweep")
        return std::make_unique<StreamSweep>(opts, dir, log);
    return nullptr;
}

} // namespace dsmem::e2e
