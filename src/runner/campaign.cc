#include "runner/campaign.h"

#include <algorithm>
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

} // namespace

Campaign::Campaign(std::string bench_name, RunnerOptions opts)
    : bench_name_(std::move(bench_name)),
      opts_(std::move(opts)),
      store_(opts_.trace_dir),
      cache_(store_.enabled() ? &store_ : nullptr)
{
    store_.setStreamExec(opts_.stream_exec);
    // In-memory (storeless) bundles make the same residency decision
    // the store makes for disk loads, so stream_exec = On bites in
    // tests and benches that clear trace_dir.
    cache_.setStreamExec(opts_.stream_exec);
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

// Keying tripwire (twin of the one in trace_store.cc): signature()
// hashes MemoryConfig memberwise. A new field must be folded in below
// (dram-style: only when active, so old signatures stay stable) —
// then update the expected sizes here and in trace_store.cc.
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
Campaign::backoff(const std::string &salt, unsigned attempt) const
{
    uint64_t ms = opts_.backoff_base_ms;
    for (unsigned i = 1; i < attempt && ms < opts_.backoff_cap_ms; ++i)
        ms *= 2;
    ms = std::min<uint64_t>(ms, opts_.backoff_cap_ms);
    uint64_t h =
        util::fnv1aUpdate(util::kFnvOffset, salt.data(), salt.size());
    h = util::fnv1aUpdate(h, &attempt, sizeof attempt);
    ms += h % (opts_.backoff_base_ms > 0 ? opts_.backoff_base_ms : 1);
    if (ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
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
        // journal's resume) can reference, including the v1 names the
        // store would migrate from.
        for (const Unit &u : units_) {
            gco.keep.push_back(
                TraceStore::fileName(u.app, u.mem, u.small));
            gco.keep.push_back(
                TraceStore::legacyFileName(u.app, u.mem, u.small));
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

    // Adaptive fusion: size sweep groups off the phase-2 work that is
    // actually pending (resume may have retired most of it) so fusing
    // never leaves workers idle. lane_cap == 1 disables fusion.
    size_t pending_ds = 0;
    for (size_t u = 0; u < units_.size(); ++u)
        for (size_t s = 0; s < units_[u].specs.size(); ++s)
            if (!results_[u].row_done[s] &&
                units_[u].specs[s].kind == sim::ModelSpec::Kind::DS)
                ++pending_ds;
    const size_t lane_cap = opts_.fuse_sweeps
        ? sim::adaptiveLaneCap(pending_ds, opts_.resolvedJobs())
        : 1;

    Runner runner(opts_.resolvedJobs());
    // Campaign jobs catch their own failures; anything that still
    // escapes (a non-exception crash path would abort regardless) is
    // recorded so ok() turns false instead of losing it.
    runner.setUncaughtHandler([this](const std::string &what) {
        recordCampaignError(
            UnitError{"runner", what, "", 1, true});
    });

    for (const auto &[key, unit_ids] : groups) {
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
            const std::string salt =
                "phase1:" + std::string(sim::appName(first.app)) +
                (first.small ? ":small" : ":full");
            sim::TraceOrigin origin;
            sim::TraceTiming timing;
            const sim::ViewBundle *bundle = nullptr;
            // Live points are per trace, not per cell: resolve them
            // here, inside the retry loop (the .dslp cache read can
            // fault transiently), and share one set with every
            // phase-2 group of this trace.
            std::shared_ptr<const sim::LivePointSet> lp;
            bool want_points = false;
            if (opts_.sampling.enabled())
                for (size_t u : unit_ids)
                    for (size_t s = 0; s < units_[u].specs.size(); ++s)
                        if (!results_[u].row_done[s] &&
                            units_[u].specs[s].kind ==
                                sim::ModelSpec::Kind::DS)
                            want_points = true;
            std::string transient;
            unsigned attempt = 1;
            auto start = std::chrono::steady_clock::now();
            for (;; ++attempt) {
                // Per-attempt clock: the watchdog budgets one job
                // execution, not the backoff sleeps between retries —
                // otherwise a fault that recovers on retry could
                // still be converted into a watchdog failure.
                start = std::chrono::steady_clock::now();
                try {
                    util::failpoint("campaign.phase1");
                    // Phase 2 only ever reads the SoA view, so
                    // resolve the view-shaped bundle: a v2 disk hit
                    // deserializes straight into TraceView arrays and
                    // the AoS trace never exists in this process.
                    bundle = &cache_.getView(first.app, first.mem,
                                             first.small, &origin,
                                             &timing);
                    if (want_points)
                        // Sampling's functional warming needs random
                        // access; a chunked bundle flattens (memoized)
                        // for this pass only.
                        lp = resolveLivePoints(first,
                                               *bundle->flatView());
                    break;
                } catch (const util::IoError &e) {
                    transient = e.what();
                    if (attempt < opts_.max_attempts) {
                        backoff(salt, attempt);
                        continue;
                    }
                    for (size_t u : unit_ids)
                        recordError(
                            u, UnitError{"phase1", transient, "",
                                         static_cast<int>(attempt),
                                         true});
                    return;
                } catch (const std::exception &e) {
                    for (size_t u : unit_ids)
                        recordError(
                            u, UnitError{"phase1", e.what(), "",
                                         static_cast<int>(attempt),
                                         true});
                    return;
                }
            }
            double wall = elapsedMs(start);
            if (opts_.job_timeout_ms > 0 &&
                wall > opts_.job_timeout_ms) {
                for (size_t u : unit_ids)
                    recordError(
                        u,
                        UnitError{
                            "watchdog",
                            "phase-1 job exceeded --job-timeout-ms",
                            "", static_cast<int>(attempt), true});
                return;
            }
            if (attempt > 1)
                recordError(unit_ids.front(),
                            UnitError{"phase1",
                                      "recovered after retry: " +
                                          transient,
                                      "",
                                      static_cast<int>(attempt),
                                      false});

            for (size_t u : unit_ids) {
                results_[u].bundle = bundle;
                results_[u].origin = origin;
                results_[u].trace_wall_ms = wall;
                results_[u].trace_timing = timing;
                results_[u].trace_from_journal = false;
                journal_.appendTrace(JournalTrace{
                    u, std::string(sim::traceOriginName(origin)),
                    bundle->stats.instructions, wall, timing.gen_ms,
                    timing.load_ms});
            }
            for (size_t u : unit_ids) {
                const Unit &unit = units_[u];
                // planPhase2 skips journal-restored rows and returns
                // groups longest-first; submission order feeds the
                // FIFO pool, so heavy sweeps start before stragglers.
                for (sim::ExecGroup &g : sim::planPhase2(
                         unit.specs, results_[u].row_done, lane_cap)) {
                    runner.submit(
                        [this, bundle, u, g = std::move(g), lp] {
                            runGroup(bundle, u, g, lp);
                        });
                }
            }
        });
    }
    runner.wait();

    finish();
}

std::vector<Campaign::CellRef>
Campaign::pendingCells() const
{
    std::vector<CellRef> cells;
    for (size_t u = 0; u < results_.size(); ++u)
        for (size_t s = 0; s < units_[u].specs.size(); ++s)
            if (!results_[u].row_done[s])
                cells.push_back(CellRef{u, s});
    return cells;
}

Campaign::ShardPlan
Campaign::shardPlan(unsigned workers) const
{
    ShardPlan plan;
    plan.shards.resize(std::max(1u, workers));

    // Group pending cells by trace key, first-appearance order, so a
    // shard resolves each phase-1 trace at most once.
    using TraceKey = std::tuple<sim::AppId, memsys::MemoryConfig, bool>;
    std::vector<std::pair<TraceKey, std::vector<CellRef>>> groups;
    for (CellRef c : pendingCells()) {
        TraceKey key{units_[c.unit].app, units_[c.unit].mem,
                     units_[c.unit].small};
        auto it = std::find_if(
            groups.begin(), groups.end(),
            [&](const auto &g) { return g.first == key; });
        if (it == groups.end()) {
            groups.push_back({key, {}});
            it = std::prev(groups.end());
        }
        it->second.push_back(c);
        ++plan.cells;
    }
    // Largest groups placed first on the lightest shard: the greedy
    // balance cannot strand one giant trace behind many small ones,
    // and ties break on shard index — fully deterministic.
    std::stable_sort(groups.begin(), groups.end(),
                     [](const auto &a, const auto &b) {
                         return a.second.size() > b.second.size();
                     });
    for (const auto &g : groups) {
        size_t best = 0;
        for (size_t k = 1; k < plan.shards.size(); ++k)
            if (plan.shards[k].size() < plan.shards[best].size())
                best = k;
        plan.shards[best].insert(plan.shards[best].end(),
                                 g.second.begin(), g.second.end());
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
    res.origin = parsed;
    res.trace_instructions = instructions;
    res.trace_wall_ms = wall_ms;
    res.trace_timing.gen_ms = gen_ms;
    res.trace_timing.load_ms = load_ms;
    journal_.appendTrace(JournalTrace{unit, origin, instructions,
                                      wall_ms, gen_ms, load_ms});
    return true;
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

bool
Campaign::runCellInline(size_t unit, size_t spec)
{
    if (unit >= results_.size() || spec >= units_[unit].specs.size())
        return false;
    if (results_[unit].row_done[spec])
        return true;
    const Unit &u = units_[unit];
    const sim::ViewBundle *vb = nullptr;
    std::shared_ptr<const sim::LivePointSet> lp;
    try {
        sim::TraceOrigin origin;
        sim::TraceTiming timing;
        auto start = std::chrono::steady_clock::now();
        const sim::ViewBundle *bundle =
            &cache_.getView(u.app, u.mem, u.small, &origin, &timing);
        if (opts_.sampling.enabled() &&
            u.specs[spec].kind == sim::ModelSpec::Kind::DS)
            lp = resolveLivePoints(u, *bundle->flatView());
        double wall = elapsedMs(start);
        if (results_[unit].bundle == nullptr &&
            !results_[unit].trace_from_journal) {
            results_[unit].bundle = bundle;
            results_[unit].origin = origin;
            results_[unit].trace_wall_ms = wall;
            results_[unit].trace_timing = timing;
            journal_.appendTrace(JournalTrace{
                unit, std::string(sim::traceOriginName(origin)),
                bundle->stats.instructions, wall, timing.gen_ms,
                timing.load_ms});
        }
        vb = bundle;
    } catch (const std::exception &e) {
        recordError(unit,
                    UnitError{"phase1", e.what(),
                              u.specs[spec].label(), 1, true});
        return false;
    }
    sim::ExecGroup group;
    group.rows.push_back(spec);
    runGroup(vb, unit, group, lp);
    return results_[unit].row_done[spec] != 0;
}

std::shared_ptr<const sim::LivePointSet>
Campaign::resolveLivePoints(const Unit &unit,
                            const trace::TraceView &view)
{
    if (auto cached = store_.loadLivePoints(unit.app, unit.mem,
                                            unit.small, opts_.sampling)) {
        // The file's checksum and plan fields already verified; the
        // last gate is that it was warmed from *this* trace content
        // (a regenerated trace of a different length, or a changed
        // offset-hash input, silently invalidates the cache).
        if (cached->instructions == view.size() &&
            cached->offset ==
                opts_.sampling.offsetFor(view.name(), view.size()))
            return std::make_shared<const sim::LivePointSet>(
                std::move(*cached));
    }
    auto lp = std::make_shared<sim::LivePointSet>(
        sim::computeLivePoints(view, opts_.sampling));
    store_.storeLivePoints(unit.app, unit.mem, unit.small,
                           opts_.sampling, *lp);
    return lp;
}

void
Campaign::runGroup(const sim::ViewBundle *bundle, size_t u,
                   const sim::ExecGroup &group,
                   const std::shared_ptr<const sim::LivePointSet> &lp)
{
    // One simulation context per worker thread, recycled across every
    // group the worker ever runs (results are context-independent —
    // see core::SimContext).
    thread_local core::SimContext sim_ctx;

    const Unit &unit = units_[u];
    std::string label;
    for (size_t s : group.rows) {
        if (!label.empty())
            label += "+";
        label += unit.specs[s].label();
    }
    const std::string salt =
        "phase2:" + std::string(sim::appName(unit.app)) + ":" + label;
    std::vector<core::RunResult> results;
    std::vector<sim::SampleSummary> summaries(group.rows.size());
    const bool sampled = opts_.sampling.enabled() && lp != nullptr;
    std::string transient;
    unsigned attempt = 1;
    auto t0 = std::chrono::steady_clock::now();
    for (;; ++attempt) {
        // Per-attempt clock — see the phase-1 watchdog note.
        t0 = std::chrono::steady_clock::now();
        try {
            // One failpoint evaluation per cell, fused or not, so a
            // fault-injection schedule is independent of how the
            // planner happened to group rows.
            for (size_t i = 0; i < group.rows.size(); ++i)
                util::failpoint("campaign.phase2");
            if (sampled) {
                // Sampled execution jumps between checkpointed
                // windows — inherently random-access, so a chunked
                // bundle flattens (memoized, shared across groups).
                std::vector<sim::SampledCell> cells =
                    sim::runGroupSampled(*bundle->flatView(),
                                         unit.specs, group,
                                         opts_.sampling, *lp, sim_ctx);
                results.clear();
                for (size_t i = 0; i < cells.size(); ++i) {
                    results.push_back(cells[i].result);
                    summaries[i] = cells[i].sampling;
                }
            } else {
                results =
                    sim::runGroup(*bundle, unit.specs, group, sim_ctx);
            }
            break;
        } catch (const util::IoError &e) {
            // A fused sweep is one pass — lanes aren't separable mid-
            // flight, so the whole group retries together.
            transient = e.what();
            if (attempt < opts_.max_attempts) {
                backoff(salt, attempt);
                continue;
            }
            for (size_t s : group.rows)
                recordError(u, UnitError{"phase2", transient,
                                         unit.specs[s].label(),
                                         static_cast<int>(attempt),
                                         true});
            return;
        } catch (const std::exception &e) {
            for (size_t s : group.rows)
                recordError(u, UnitError{"phase2", e.what(),
                                         unit.specs[s].label(),
                                         static_cast<int>(attempt),
                                         true});
            return;
        }
    }
    double wall = elapsedMs(t0);
    if (opts_.job_timeout_ms > 0 && wall > opts_.job_timeout_ms) {
        // The watchdog cannot safely kill a thread mid-simulation;
        // instead an over-budget job is failed at completion and its
        // result discarded. A job that never returns at all still
        // blocks wait() — see DESIGN.md "Failure model".
        for (size_t s : group.rows)
            recordError(u, UnitError{"watchdog",
                                     "phase-2 job exceeded "
                                     "--job-timeout-ms",
                                     unit.specs[s].label(),
                                     static_cast<int>(attempt), true});
        return;
    }
    if (attempt > 1)
        recordError(u, UnitError{"phase2",
                                 "recovered after retry: " + transient,
                                 label, static_cast<int>(attempt),
                                 false});

    // Decompose back to per-cell rows: each journals independently
    // (resume granularity is unchanged by fusion) and the group's
    // wall clock is split evenly — the lanes ran interleaved, so no
    // finer attribution exists.
    double row_wall = wall / static_cast<double>(group.rows.size());
    for (size_t i = 0; i < group.rows.size(); ++i) {
        size_t s = group.rows[i];
        std::string row_label = unit.specs[s].label();
        results_[u].rows[s] =
            sim::LabelledResult{row_label, results[i]};
        results_[u].row_wall_ms[s] = row_wall;
        results_[u].row_done[s] = 1;
        results_[u].row_sampling[s] = summaries[i];
        journal_.appendRow(JournalRow{u, s, row_label, results[i],
                                      row_wall, summaries[i]});
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
        bool first_use =
            std::find(seen.begin(), seen.end(), key) == seen.end();
        bool have_trace =
            res.bundle != nullptr || res.trace_from_journal;
        if (first_use && have_trace) {
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
