#include "runner/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>

#include "util/byte_io.h"
#include "util/errors.h"
#include "util/failpoint.h"

namespace dsmem::runner {

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

bool
parseOrigin(const std::string &name, sim::TraceOrigin &out)
{
    if (name == "generated")
        out = sim::TraceOrigin::GENERATED;
    else if (name == "disk")
        out = sim::TraceOrigin::DISK;
    else if (name == "memory")
        out = sim::TraceOrigin::MEMORY;
    else
        return false;
    return true;
}

/** How one job fared under the campaign's fault policy (runJob). */
struct JobRun {
    bool ok = false;
    int attempts = 1;
    double wall_ms = 0.0;    ///< The last attempt.
    std::string site, error; ///< Why it failed, when !ok.
    std::string transient;   ///< The last transient fault seen.

    /** The errors a unit records: one fatal error per label when the
     *  job failed, a non-fatal note when a retry recovered it. */
    std::vector<UnitError> errors(const std::vector<std::string> &labels,
                                  const std::string &job_label) const
    {
        std::vector<UnitError> out;
        if (!ok) {
            for (const std::string &l : labels)
                out.push_back(UnitError{site, error, l, attempts, true});
        } else if (attempts > 1) {
            out.push_back(UnitError{site,
                                    "recovered after retry: " + transient,
                                    job_label, attempts, false});
        }
        return out;
    }
};

/**
 * Run @p body under the fault policy of @p opts: a transient fault
 * (util::IoError) retries after backoffSleep(@p salt), anything else
 * fails at once, and the watchdog fails an attempt that finished over
 * job_timeout_ms — it cannot safely kill a thread mid-simulation, so
 * the result is discarded instead (a job that never returns still
 * blocks; DESIGN.md "Failure model").
 */
template <typename Body>
JobRun
runJob(const RunnerOptions &opts, const std::string &salt,
       const char *site, const char *watchdog_msg, Body &&body)
{
    JobRun run;
    run.site = site;
    for (unsigned attempt = 1;; ++attempt) {
        run.attempts = static_cast<int>(attempt);
        // Per-attempt clock: the watchdog budgets one job execution,
        // not the backoff sleeps between retries — otherwise a fault
        // that recovers on retry could still be converted into a
        // watchdog failure.
        const auto start = std::chrono::steady_clock::now();
        try {
            body();
            run.wall_ms = elapsedMs(start);
            break;
        } catch (const util::IoError &e) {
            run.transient = e.what();
            if (attempt < opts.max_attempts) {
                backoffSleep(opts, salt, attempt);
                continue;
            }
            run.error = run.transient;
            return run;
        } catch (const std::exception &e) {
            run.error = e.what();
            return run;
        }
    }
    if (opts.job_timeout_ms > 0 && run.wall_ms > opts.job_timeout_ms) {
        run.site = "watchdog";
        run.error = watchdog_msg;
        return run;
    }
    run.ok = true;
    return run;
}

} // namespace

void
backoffSleep(const RunnerOptions &opts, const std::string &salt,
             unsigned attempt)
{
    uint64_t ms = opts.backoff_base_ms;
    for (unsigned i = 1; i < attempt && ms < opts.backoff_cap_ms; ++i)
        ms *= 2;
    ms = std::min<uint64_t>(ms, opts.backoff_cap_ms);
    uint64_t h =
        util::fnv1aUpdate(util::kFnvOffset, salt.data(), salt.size());
    h = util::fnv1aUpdate(h, &attempt, sizeof attempt);
    ms += h % (opts.backoff_base_ms > 0 ? opts.backoff_base_ms : 1);
    if (ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

GroupOutcome
runPhase2Group(const sim::ViewBundle &bundle, sim::AppId app,
               const std::vector<sim::ModelSpec> &specs,
               const sim::ExecGroup &group, const RunnerOptions &opts,
               const sim::LivePointSet *lp, core::SimContext &ctx)
{
    GroupOutcome out;
    std::vector<std::string> labels;
    std::string label;
    for (size_t s : group.rows) {
        labels.push_back(specs[s].label());
        label += (label.empty() ? "" : "+") + labels.back();
    }
    const bool sampled = opts.sampling.enabled() && lp != nullptr;
    JobRun run = runJob(
        opts, "phase2:" + std::string(sim::appName(app)) + ":" + label,
        "phase2", "phase-2 job exceeded --job-timeout-ms", [&] {
            for (size_t i = 0; i < group.rows.size(); ++i)
                util::failpoint("campaign.phase2");
            out.sampling.assign(group.rows.size(), {});
            if (!sampled) {
                out.results = sim::runGroup(bundle, specs, group, ctx);
                return;
            }
            // Sampled execution jumps between checkpointed windows —
            // inherently random-access, so a chunked bundle flattens
            // (memoized, shared across groups).
            out.results.clear();
            std::vector<sim::SampledCell> cells = sim::runGroupSampled(
                *bundle.flatView(), specs, group, opts.sampling, *lp,
                ctx);
            for (size_t i = 0; i < cells.size(); ++i) {
                out.results.push_back(cells[i].result);
                out.sampling[i] = cells[i].sampling;
            }
        });
    out.ok = run.ok;
    out.wall_ms = run.wall_ms;
    out.errors = run.errors(labels, label);
    return out;
}

Phase1Outcome
resolvePhase1(TraceStore &store, sim::AppId app,
              const memsys::MemoryConfig &mem, bool small,
              const RunnerOptions &opts, bool want_points)
{
    Phase1Outcome out;
    JobRun run = runJob(
        opts,
        "phase1:" + std::string(sim::appName(app)) +
            (small ? ":small" : ":full"),
        "phase1", "phase-1 job exceeded --job-timeout-ms", [&] {
            util::failpoint("campaign.phase1");
            // Phase 2 reads the trace in order, so resolve the
            // phase-2 bundle: a v2 disk hit keeps the file's sections
            // as read (the lean chunked load) and the AoS trace never
            // exists in this process.
            out.bundle =
                &store.getView(app, mem, small, &out.origin, &out.timing);
            if (want_points)
                // Inside the retry loop: the .dslp cache read can
                // fault transiently. Functional warming needs random
                // access; a chunked bundle flattens (memoized).
                out.lp = store.livePoints(app, mem, small, opts.sampling,
                                          *out.bundle->flatView());
        });
    out.wall_ms = run.wall_ms;
    out.errors = run.errors({""}, "");
    if (!run.ok) {
        out.bundle = nullptr;
        out.lp.reset();
    }
    return out;
}

Campaign::Campaign(std::string bench_name, RunnerOptions opts)
    : bench_name_(std::move(bench_name)),
      opts_(std::move(opts)),
      store_(opts_.trace_dir, opts_.stream_exec)
{
    // Absorbed store failures (failed renames/removes, quarantines)
    // surface as non-fatal campaign errors instead of vanishing.
    store_.setErrorHandler(
        [this](const std::string &site, const std::string &message) {
            recordCampaignError(UnitError{site, message, "", 1, false});
        });
}

size_t
Campaign::add(sim::AppId app, std::vector<sim::ModelSpec> specs,
              const memsys::MemoryConfig &mem, bool small)
{
    units_.push_back(Unit{app, mem, small, std::move(specs)});
    return units_.size() - 1;
}

// Keying tripwire (twin of the ones in trace_store.cc and
// svc/protocol.cc): signature() hashes MemoryConfig memberwise. A new
// field must be folded in below (dram-style: only when active, so old
// signatures stay stable) — then update the expected sizes here, in
// trace_store.cc and in svc/protocol.cc.
static_assert(sizeof(memsys::DramConfig) == 36,
              "DramConfig changed: update Campaign::signature + "
              "versionedFileName, then this size");
static_assert(sizeof(memsys::MemoryConfig) == 56,
              "MemoryConfig changed: update Campaign::signature + "
              "versionedFileName, then this size");

uint64_t
Campaign::signature() const
{
    uint64_t h = util::fnv1aUpdate(util::kFnvOffset,
                                   bench_name_.data(),
                                   bench_name_.size());
    // Sampling parameters fold in only when the plan is enabled
    // (dram-style): a sampled campaign's rows are estimates, so its
    // journal must never resume an exact campaign or vice versa —
    // while every sampling-off journal keeps its exact seed signature.
    if (opts_.sampling.enabled()) {
        uint64_t plan_fields[] = {
            opts_.sampling.period,
            opts_.sampling.detailed,
            opts_.sampling.warmup,
            opts_.sampling.seed,
        };
        h = util::fnv1aUpdate(h, plan_fields, sizeof plan_fields);
    }
    for (const Unit &u : units_) {
        std::string_view name = sim::appName(u.app);
        h = util::fnv1aUpdate(h, name.data(), name.size());
        uint64_t fields[] = {
            static_cast<uint64_t>(u.mem.hit_latency),
            static_cast<uint64_t>(u.mem.miss_latency),
            static_cast<uint64_t>(u.mem.protocol ==
                                  memsys::Protocol::MESI),
            static_cast<uint64_t>(u.mem.banks),
            static_cast<uint64_t>(u.mem.bank_occupancy),
            static_cast<uint64_t>(u.small),
            static_cast<uint64_t>(u.specs.size()),
        };
        h = util::fnv1aUpdate(h, fields, sizeof fields);
        // DRAM fields fold in only when the model is on: every
        // pre-existing journal keeps its exact seed signature.
        if (u.mem.dram.enabled()) {
            const memsys::DramConfig &d = u.mem.dram;
            uint64_t dram_fields[] = {
                static_cast<uint64_t>(d.banks),
                static_cast<uint64_t>(d.sched),
                static_cast<uint64_t>(d.row_bytes),
                static_cast<uint64_t>(d.t_rcd),
                static_cast<uint64_t>(d.t_rp),
                static_cast<uint64_t>(d.t_cas),
                static_cast<uint64_t>(d.bus_cycles),
                static_cast<uint64_t>(d.base_latency),
                static_cast<uint64_t>(d.batch_cap),
            };
            h = util::fnv1aUpdate(h, dram_fields, sizeof dram_fields);
        }
        for (const sim::ModelSpec &spec : u.specs) {
            std::string label = spec.label();
            h = util::fnv1aUpdate(h, label.data(), label.size());
        }
    }
    return h;
}

void
Campaign::recordError(size_t unit, UnitError err)
{
    std::lock_guard<std::mutex> lock(err_mu_);
    if (err.fatal)
        results_[unit].failed = true;
    results_[unit].errors.push_back(std::move(err));
}

void
Campaign::recordCampaignError(UnitError err)
{
    std::lock_guard<std::mutex> lock(err_mu_);
    campaign_errors_.push_back(std::move(err));
}

void
Campaign::replayJournal()
{
    std::vector<JournalRow> rows;
    std::vector<JournalTrace> traces;
    std::string err;
    journal_meta_ = JournalMeta{};
    if (!CampaignJournal::replay(opts_.journal_path, signature(),
                                 rows, traces, &err,
                                 &journal_meta_)) {
        recordCampaignError(
            UnitError{"journal", "cannot resume: " + err, "", 1, true});
        return;
    }

    // Later records win (a re-run group may have re-journaled its
    // trace line), and anything not matching the declaration set is
    // dropped with a report — the row simply re-runs.
    for (const JournalTrace &t : traces) {
        sim::TraceOrigin origin;
        if (t.unit >= units_.size() || !parseOrigin(t.origin, origin)) {
            recordCampaignError(UnitError{
                "journal",
                "ignoring trace record for unknown unit/origin", "",
                1, false});
            continue;
        }
        UnitResult &res = results_[t.unit];
        res.trace_from_journal = true;
        res.origin = origin;
        res.trace_instructions = t.instructions;
        res.trace_wall_ms = t.wall_ms;
        res.trace_timing.gen_ms = t.gen_ms;
        res.trace_timing.load_ms = t.load_ms;
    }
    for (const JournalRow &r : rows) {
        if (r.unit >= units_.size() ||
            r.spec >= units_[r.unit].specs.size() ||
            r.label != units_[r.unit].specs[r.spec].label()) {
            recordCampaignError(UnitError{
                "journal",
                "ignoring row record not matching the declared "
                "campaign",
                r.label, 1, false});
            continue;
        }
        UnitResult &res = results_[r.unit];
        res.rows[r.spec] = sim::LabelledResult{r.label, r.result};
        res.row_wall_ms[r.spec] = r.wall_ms;
        res.row_done[r.spec] = 1;
        res.row_sampling[r.spec] = r.sampling;
    }
}

bool
Campaign::prepare()
{
    results_.assign(units_.size(), UnitResult{});
    campaign_errors_.clear();
    for (size_t u = 0; u < units_.size(); ++u) {
        results_[u].rows.resize(units_[u].specs.size());
        results_[u].row_wall_ms.resize(units_[u].specs.size(), 0.0);
        results_[u].row_done.assign(units_[u].specs.size(), 0);
        results_[u].row_sampling.resize(units_[u].specs.size());
    }

    // A malformed sampling plan fails the whole campaign up front: no
    // unit could produce a valid estimate, and silently falling back
    // to exact runs would misreport what the user asked to measure.
    if (opts_.sampling.enabled()) {
        std::string why;
        if (!opts_.sampling.validate(&why)) {
            recordCampaignError(
                UnitError{"sampling", why, "", 1, true});
            fillSink();
            return false;
        }
    }

    const bool journalled = !opts_.journal_path.empty();
    if (opts_.resume && journalled &&
        std::ifstream(opts_.journal_path).good()) {
        replayJournal();
        // A journal that exists but cannot be trusted must not run
        // anything: finishing a *different* campaign under --resume
        // would overwrite results the user meant to keep.
        bool fatal = false;
        {
            std::lock_guard<std::mutex> lock(err_mu_);
            for (const UnitError &e : campaign_errors_)
                fatal = fatal || e.fatal;
        }
        if (fatal) {
            fillSink();
            return false;
        }
    }
    if (journalled) {
        std::string err;
        if (!journal_.open(opts_.journal_path, bench_name_,
                           signature(), opts_.resume, &err)) {
            recordCampaignError(
                UnitError{"journal", err, "", 1, false});
        }
    }

    if (opts_.store_gc && store_.enabled()) {
        StoreGcOptions gco;
        gco.max_age_s = opts_.store_gc_age_s;
        gco.max_corrupt_per_name = TraceStore::kMaxQuarantinePerName;
        // The keep set protects every file this campaign (or its
        // journal's resume) can reference.
        for (const Unit &u : units_) {
            gco.keep.push_back(
                TraceStore::fileName(u.app, u.mem, u.small));
            if (opts_.sampling.enabled())
                gco.keep.push_back(TraceStore::livePointFileName(
                    u.app, u.mem, u.small, opts_.sampling));
        }
        store_gc_stats_ = store_.gc(gco);
    }
    return true;
}

void
Campaign::finish()
{
    if (journal_.failed())
        recordCampaignError(UnitError{
            "journal",
            "journalling disabled mid-run: " + journal_.failure() +
                " (campaign completed; this journal cannot resume "
                "it)",
            "", 1, false});
    journal_.close();

    fillSink();
}

void
Campaign::run()
{
    if (!prepare())
        return;

    // Group units sharing one phase-1 trace so it is generated once.
    using TraceKey = std::tuple<sim::AppId, memsys::MemoryConfig, bool>;
    std::map<TraceKey, std::vector<size_t>> groups;
    for (size_t u = 0; u < units_.size(); ++u)
        groups[{units_[u].app, units_[u].mem, units_[u].small}]
            .push_back(u);

    const size_t lane_cap = laneCap(opts_.resolvedJobs());

    Runner runner(opts_.resolvedJobs());
    // Campaign jobs catch their own failures; anything that still
    // escapes (a non-exception crash path would abort regardless) is
    // recorded so ok() turns false instead of losing it.
    runner.setUncaughtHandler([this](const std::string &what) {
        recordCampaignError(
            UnitError{"runner", what, "", 1, true});
    });

    // Longest phase 1 first: with more traces than threads, the
    // longest generation would otherwise start only when an earlier
    // one finished and set the critical path alone. Each job writes
    // its own pre-sized slot, so the order changes no result.
    std::vector<const std::pair<const TraceKey, std::vector<size_t>> *>
        order;
    for (const auto &group : groups)
        order.push_back(&group);
    std::stable_sort(order.begin(), order.end(), [](auto *a, auto *b) {
        return sim::phase1CostMs(std::get<0>(a->first),
                                 std::get<2>(a->first)) >
            sim::phase1CostMs(std::get<0>(b->first),
                              std::get<2>(b->first));
    });

    for (const auto *group : order) {
        const std::vector<size_t> &unit_ids = group->second;
        // Resume fast path: a group whose every row (and trace
        // record) is already durable re-runs nothing — not even
        // phase 1.
        bool pending = false;
        for (size_t u : unit_ids) {
            if (!results_[u].trace_from_journal)
                pending = true;
            for (uint8_t done : results_[u].row_done)
                pending = pending || !done;
        }
        if (!pending)
            continue;

        // Phase 1: resolve the trace (memory -> disk -> generate),
        // then immediately unblock this trace's phase-2 runs. Every
        // job writes only its own pre-sized slot, so no result
        // depends on worker scheduling.
        runner.submit([this, &runner, unit_ids, lane_cap] {
            const Unit &first = units_[unit_ids.front()];
            // Live points are per trace, not per cell: resolve them
            // with the trace and share one set with every phase-2
            // group of this trace.
            bool want_points = false;
            if (opts_.sampling.enabled())
                for (size_t u : unit_ids)
                    for (size_t s = 0; s < units_[u].specs.size(); ++s)
                        if (!results_[u].row_done[s] &&
                            units_[u].specs[s].kind ==
                                sim::ModelSpec::Kind::DS)
                            want_points = true;
            Phase1Outcome p1 =
                resolvePhase1(store_, first.app, first.mem,
                              first.small, opts_, want_points);
            for (size_t u : unit_ids)
                for (const UnitError &e : p1.errors)
                    if (e.fatal || u == unit_ids.front())
                        recordError(u, e);
            if (p1.bundle == nullptr)
                return;
            std::shared_ptr<const sim::LivePointSet> lp = p1.lp;
            for (size_t u : unit_ids)
                adoptTrace(u, p1);
            // planPhase2 skips journal-restored rows and returns
            // groups longest-first; submission order feeds the FIFO
            // pool, so heavy sweeps start before stragglers.
            std::vector<std::pair<size_t, sim::ExecGroup>> work;
            for (size_t u : unit_ids)
                for (sim::ExecGroup &g : sim::planPhase2(
                         units_[u].specs, results_[u].row_done, lane_cap))
                    work.emplace_back(u, std::move(g));
            // The trace's columns are dropped from the store once its
            // last group finishes: every group runs on its own copy
            // of the bundle (shared columns, taken here before any
            // group can finish), so the release only frees memory.
            const sim::ViewBundle held = *p1.bundle;
            auto left = std::make_shared<std::atomic<size_t>>(
                work.size());
            auto release = [this, app = first.app, mem = first.mem,
                            small = first.small] {
                store_.release(app, mem, small);
            };
            if (work.empty())
                release();
            for (auto &[u, g] : work) {
                runner.submit([this, held, u, g = std::move(g), lp, left,
                               release] {
                    runGroup(held, u, g, lp);
                    if (left->fetch_sub(1) == 1)
                        release();
                });
            }
        });
    }
    runner.wait();

    finish();
}

size_t
Campaign::laneCap(unsigned jobs) const
{
    // Adaptive fusion: size sweep groups off the phase-2 work that is
    // actually pending (resume may have retired most of it) so fusing
    // never leaves workers idle.
    size_t pending_ds = 0;
    for (size_t u = 0; u < units_.size(); ++u)
        for (size_t s = 0; s < units_[u].specs.size(); ++s)
            if (!results_[u].row_done[s] &&
                units_[u].specs[s].kind == sim::ModelSpec::Kind::DS)
                ++pending_ds;
    return sim::adaptiveLaneCap(pending_ds, jobs);
}

Campaign::ShardPlan
Campaign::shardPlan(unsigned workers, unsigned worker_threads) const
{
    ShardPlan plan;
    plan.shards.resize(std::max(1u, workers));

    // The groups run() would submit at the pool's total thread count,
    // gathered per trace key in first-appearance order so a shard
    // resolves each phase-1 trace at most once.
    const size_t lane_cap = laneCap(static_cast<unsigned>(
        plan.shards.size() * std::max(1u, worker_threads)));
    using TraceKey = std::tuple<sim::AppId, memsys::MemoryConfig, bool>;
    struct TraceWork {
        TraceKey key;
        std::vector<GroupRef> groups;
        size_t cells = 0;
    };
    std::vector<TraceWork> traces;
    for (size_t u = 0; u < units_.size(); ++u) {
        TraceKey key{units_[u].app, units_[u].mem, units_[u].small};
        auto it = std::find_if(
            traces.begin(), traces.end(),
            [&](const TraceWork &t) { return t.key == key; });
        for (sim::ExecGroup &g : sim::planPhase2(
                 units_[u].specs, results_[u].row_done, lane_cap)) {
            if (it == traces.end()) {
                traces.push_back({key, {}, 0});
                it = std::prev(traces.end());
            }
            it->cells += g.rows.size();
            plan.cells += g.rows.size();
            it->groups.push_back(GroupRef{u, std::move(g)});
        }
    }
    // Heaviest traces placed first on the lightest shard (by cells):
    // the greedy balance cannot strand one giant trace behind many
    // small ones, and ties break on shard index — fully
    // deterministic.
    std::stable_sort(traces.begin(), traces.end(),
                     [](const TraceWork &a, const TraceWork &b) {
                         return a.cells > b.cells;
                     });
    std::vector<size_t> load(plan.shards.size(), 0);
    std::vector<std::vector<TraceWork *>> placed(plan.shards.size());
    for (TraceWork &t : traces) {
        size_t best = 0;
        for (size_t k = 1; k < plan.shards.size(); ++k)
            if (load[k] < load[best])
                best = k;
        load[best] += t.cells;
        placed[best].push_back(&t);
    }
    // Deal each shard's traces round-robin, one group per trace per
    // turn: a worker's first leases then name distinct traces, which
    // its threads resolve in parallel.
    for (size_t k = 0; k < placed.size(); ++k) {
        for (size_t turn = 0, dealt = 1; dealt > 0; ++turn) {
            dealt = 0;
            for (TraceWork *t : placed[k]) {
                if (turn < t->groups.size()) {
                    plan.shards[k].push_back(std::move(t->groups[turn]));
                    ++dealt;
                }
            }
        }
    }
    return plan;
}

Campaign::Accept
Campaign::acceptRemoteRow(size_t unit, size_t spec,
                          const core::RunResult &result,
                          const sim::SampleSummary &sampling,
                          double wall_ms)
{
    if (unit >= results_.size() || spec >= units_[unit].specs.size())
        return Accept::BAD_REF;
    UnitResult &res = results_[unit];
    if (res.row_done[spec]) {
        const sim::SampleSummary &have = res.row_sampling[spec];
        bool same = res.rows[spec].result == result &&
                    have.sampled == sampling.sampled &&
                    have.windows == sampling.windows &&
                    have.measured == sampling.measured &&
                    have.cpi_mean == sampling.cpi_mean &&
                    have.ci95 == sampling.ci95;
        return same ? Accept::DUPLICATE : Accept::MISMATCH;
    }
    std::string label = units_[unit].specs[spec].label();
    res.rows[spec] = sim::LabelledResult{label, result};
    res.row_wall_ms[spec] = wall_ms;
    res.row_done[spec] = 1;
    res.row_sampling[spec] = sampling;
    journal_.appendRow(
        JournalRow{unit, spec, label, result, wall_ms, sampling});
    return Accept::OK;
}

bool
Campaign::acceptRemoteTrace(size_t unit, const std::string &origin,
                            uint64_t instructions, double wall_ms,
                            double gen_ms, double load_ms)
{
    sim::TraceOrigin parsed;
    if (unit >= results_.size() || !parseOrigin(origin, parsed))
        return false;
    UnitResult &res = results_[unit];
    if (res.bundle != nullptr || res.trace_from_journal)
        return true; // First provenance report wins.
    res.trace_from_journal = true; // Bundle-less, like a resume.
    sim::TraceTiming timing;
    timing.gen_ms = gen_ms;
    timing.load_ms = load_ms;
    recordTrace(unit, parsed, instructions, wall_ms, timing);
    return true;
}

void
Campaign::adoptTrace(size_t u, const Phase1Outcome &p1)
{
    results_[u].bundle = p1.bundle;
    results_[u].trace_from_journal = false;
    recordTrace(u, p1.origin, p1.bundle->stats.instructions, p1.wall_ms,
                p1.timing);
}

void
Campaign::recordTrace(size_t u, sim::TraceOrigin origin,
                      uint64_t instructions, double wall_ms,
                      const sim::TraceTiming &timing)
{
    UnitResult &res = results_[u];
    res.origin = origin;
    res.trace_instructions = instructions;
    res.trace_wall_ms = wall_ms;
    res.trace_timing = timing;
    journal_.appendTrace(JournalTrace{
        u, std::string(sim::traceOriginName(origin)), instructions,
        wall_ms, timing.gen_ms, timing.load_ms});
}

void
Campaign::recordRemoteError(size_t unit, const std::string &spec_label,
                            const std::string &site,
                            const std::string &message, bool fatal)
{
    if (unit >= results_.size())
        return;
    recordError(unit,
                UnitError{site, message, spec_label, 1, fatal});
}

void
Campaign::runGroupInline(const GroupRef &ref)
{
    const size_t unit = ref.unit;
    if (unit >= results_.size())
        return;
    const Unit &u = units_[unit];
    sim::ExecGroup group = ref.group;
    std::erase_if(group.rows, [&](size_t s) {
        return s >= u.specs.size() || results_[unit].row_done[s];
    });
    if (group.rows.empty())
        return;
    group.fused = group.fused && group.rows.size() > 1;
    const bool want_points =
        opts_.sampling.enabled() &&
        std::any_of(group.rows.begin(), group.rows.end(), [&](size_t s) {
            return u.specs[s].kind == sim::ModelSpec::Kind::DS;
        });
    Phase1Outcome p1 = resolvePhase1(store_, u.app, u.mem,
                                     u.small, opts_, want_points);
    for (UnitError &e : p1.errors) {
        if (!e.fatal) {
            recordError(unit, std::move(e));
            continue;
        }
        for (size_t s : group.rows) {
            e.spec = u.specs[s].label();
            recordError(unit, e);
        }
    }
    if (p1.bundle == nullptr)
        return;
    if (results_[unit].bundle == nullptr &&
        !results_[unit].trace_from_journal)
        adoptTrace(unit, p1);
    runGroup(*p1.bundle, unit, group, p1.lp);
}

void
Campaign::runGroup(const sim::ViewBundle &bundle, size_t u,
                   const sim::ExecGroup &group,
                   const std::shared_ptr<const sim::LivePointSet> &lp)
{
    // One simulation context per worker thread, recycled across every
    // group the worker ever runs (results are context-independent —
    // see core::SimContext).
    thread_local core::SimContext sim_ctx;

    const Unit &unit = units_[u];
    GroupOutcome out = runPhase2Group(bundle, unit.app, unit.specs,
                                      group, opts_, lp.get(), sim_ctx);
    for (UnitError &e : out.errors)
        recordError(u, std::move(e));
    if (!out.ok)
        return;

    // Decompose back to per-cell rows: each journals independently
    // (resume granularity is unchanged by fusion) and the group's
    // wall clock is split evenly — the lanes ran interleaved, so no
    // finer attribution exists.
    double row_wall = out.wall_ms / static_cast<double>(group.rows.size());
    for (size_t i = 0; i < group.rows.size(); ++i) {
        size_t s = group.rows[i];
        std::string row_label = unit.specs[s].label();
        results_[u].rows[s] =
            sim::LabelledResult{row_label, out.results[i]};
        results_[u].row_wall_ms[s] = row_wall;
        results_[u].row_done[s] = 1;
        results_[u].row_sampling[s] = out.sampling[i];
        journal_.appendRow(JournalRow{u, s, row_label, out.results[i],
                                      row_wall, out.sampling[i]});
    }
}

bool
Campaign::ok() const
{
    std::lock_guard<std::mutex> lock(err_mu_);
    for (const UnitResult &res : results_)
        if (res.failed)
            return false;
    for (const UnitError &e : campaign_errors_)
        if (e.fatal)
            return false;
    return true;
}

std::string
Campaign::failureSummary() const
{
    std::lock_guard<std::mutex> lock(err_mu_);
    std::ostringstream os;
    for (size_t u = 0; u < results_.size(); ++u) {
        const UnitResult &res = results_[u];
        if (!res.failed)
            continue;
        os << bench_name_ << ": unit " << u << " ("
           << sim::appName(units_[u].app) << ") failed:\n";
        for (const UnitError &e : res.errors) {
            if (!e.fatal)
                continue;
            os << "  [" << e.site << "] "
               << (e.spec.empty() ? std::string("(unit)") : e.spec)
               << ": " << e.message << " (attempt " << e.attempts
               << " of " << opts_.max_attempts << ")\n";
        }
    }
    for (const UnitError &e : campaign_errors_)
        if (e.fatal)
            os << bench_name_ << ": [" << e.site << "] " << e.message
               << "\n";
    return os.str();
}

void
Campaign::fillSink()
{
    sink_.clear();
    // Stable mode exports the deterministic projection only: every
    // field that varies with wall clock, machine, process topology,
    // cache temperature, or absorbed-fault history is blanked, so two
    // runs of the same declaration set diff byte-identically no
    // matter how (or how many times) they executed.
    const bool stable = opts_.stable_json;
    sink_.setContext(bench_name_, stable ? 0 : opts_.resolvedJobs(),
                     stable ? "" : opts_.trace_dir);

    // Records are appended in declaration order (units, then specs),
    // independent of the order workers finished in. Trace records
    // dedup by trace key — not bundle pointer — because a resumed or
    // failed unit has no bundle in memory.
    using TraceKey = std::tuple<sim::AppId, memsys::MemoryConfig, bool>;
    std::vector<TraceKey> seen;
    for (size_t u = 0; u < units_.size(); ++u) {
        const Unit &unit = units_[u];
        const UnitResult &res = results_[u];

        TraceKey key{unit.app, unit.mem, unit.small};
        bool first_seen =
            std::find(seen.begin(), seen.end(), key) == seen.end();
        bool have_trace =
            res.bundle != nullptr || res.trace_from_journal;
        if (first_seen && have_trace) {
            seen.push_back(key);
            TraceRecord t;
            t.app = std::string(sim::appName(unit.app));
            t.hit_latency = unit.mem.hit_latency;
            t.miss_latency = unit.mem.miss_latency;
            t.protocol = unit.mem.protocol == memsys::Protocol::MESI
                ? "MESI"
                : "MSI";
            t.banks = unit.mem.banks;
            t.small = unit.small;
            t.origin = stable
                ? ""
                : std::string(sim::traceOriginName(res.origin));
            t.file = stable
                ? ""
                : store_.pathFor(unit.app, unit.mem, unit.small);
            t.instructions = res.bundle
                ? res.bundle->stats.instructions
                : res.trace_instructions;
            t.wall_ms = stable ? 0.0 : res.trace_wall_ms;
            t.gen_ms = stable ? 0.0 : res.trace_timing.gen_ms;
            t.load_ms = stable ? 0.0 : res.trace_timing.load_ms;
            // Contention members only when the unit's config enabled
            // them; stats need the bundle resident (a journal-resumed
            // unit skipped phase 1, so counters stay their zero
            // defaults while geometry still documents the config).
            // Stable mode blanks them for the same reason: whether
            // the bundle is resident depends on which process ran
            // phase 1, and a deterministic projection cannot.
            if (unit.mem.banks > 0) {
                t.has_contention = true;
                if (res.bundle && !stable)
                    t.contention_cycles =
                        res.bundle->cache0.contention_cycles;
            }
            if (unit.mem.dram.enabled()) {
                t.has_dram = true;
                t.dram_banks = unit.mem.dram.banks;
                t.dram_row_bytes = unit.mem.dram.row_bytes;
                t.dram_sched =
                    memsys::schedPolicyName(unit.mem.dram.sched);
                if (res.bundle && !stable)
                    t.dram_stats = res.bundle->cache0.dram;
            }
            sink_.addTrace(std::move(t));
        }

        // Hidden-read fractions are relative to the unit's BASE row,
        // when the unit declared one (and it finished).
        const core::RunResult *base = nullptr;
        for (size_t s = 0; s < unit.specs.size(); ++s) {
            if (unit.specs[s].kind == sim::ModelSpec::Kind::BASE &&
                res.row_done[s]) {
                base = &res.rows[s].result;
                break;
            }
        }

        for (size_t s = 0; s < unit.specs.size(); ++s) {
            if (!res.row_done[s])
                continue; // Failed rows are reported in errors.
            RunRecord r;
            r.app = std::string(sim::appName(unit.app));
            r.spec = res.rows[s].label;
            r.trace_origin = stable
                ? ""
                : std::string(sim::traceOriginName(res.origin));
            r.result = res.rows[s].result;
            r.hidden_read = base
                ? sim::hiddenReadFraction(*base, res.rows[s].result)
                : 0.0;
            r.wall_ms = stable ? 0.0 : res.row_wall_ms[s];
            const sim::SampleSummary &ss = res.row_sampling[s];
            if (ss.sampled) {
                r.has_sampling = true;
                r.sample_windows = ss.windows;
                r.sample_measured = ss.measured;
                r.cpi_mean = ss.cpi_mean;
                r.ci95 = ss.ci95;
            }
            sink_.addRun(std::move(r));
        }

        // Error records are fault *history* — how many retries, which
        // worker died — not results; stable mode omits them so a
        // chaos run that absorbed every fault diffs clean. Fatal
        // errors still fail ok(), so nothing is hidden from the exit
        // code.
        if (!stable) {
            for (const UnitError &e : res.errors) {
                ErrorRecord rec;
                rec.app = std::string(sim::appName(unit.app));
                rec.spec = e.spec;
                rec.site = e.site;
                rec.message = e.message;
                rec.attempts = e.attempts;
                rec.fatal = e.fatal;
                sink_.addError(std::move(rec));
            }
        }
    }
    if (!stable) {
        const StoreStats st = store_.stats();
        sink_.setStore({st.chunk_fetches, st.fetch_bytes,
                        st.fetch_verify_failures});
        std::lock_guard<std::mutex> lock(err_mu_);
        for (const UnitError &e : campaign_errors_) {
            ErrorRecord rec;
            rec.spec = e.spec;
            rec.site = e.site;
            rec.message = e.message;
            rec.attempts = e.attempts;
            rec.fatal = e.fatal;
            sink_.addError(std::move(rec));
        }
    }
}

bool
Campaign::writeJson(const std::string &path) const
{
    if (path.empty())
        return true;
    return sink_.writeJsonFile(path);
}

} // namespace dsmem::runner
