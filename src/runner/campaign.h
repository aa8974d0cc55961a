#ifndef DSMEM_RUNNER_CAMPAIGN_H
#define DSMEM_RUNNER_CAMPAIGN_H

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runner/journal.h"
#include "runner/result_sink.h"
#include "runner/runner.h"
#include "runner/trace_store.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/sampling.h"
#include "sim/trace_bundle.h"

namespace dsmem::runner {

/**
 * One recorded failure inside a campaign unit. Non-fatal entries are
 * absorbed faults (a store rename that failed, a retry that later
 * succeeded); fatal entries mean the unit is missing results.
 */
struct UnitError {
    std::string site;    ///< Failing boundary ("phase1", "phase2", ...).
    std::string message; ///< Exception / error text.
    std::string spec;    ///< Spec label for row failures ("" = unit-wide).
    int attempts = 1;    ///< Attempts consumed, including the last.
    bool fatal = true;
};

/**
 * Results of one campaign unit, in the unit's declared spec order
 * (never in worker completion order — output stays bit-identical to
 * serial execution for any --jobs value).
 */
struct UnitResult {
    /**
     * The unit's trace in the campaign's store. run() releases its
     * columns (view, chunked) once the trace's last group finishes;
     * the stats fields stay readable.
     */
    const sim::ViewBundle *bundle = nullptr;
    sim::TraceOrigin origin = sim::TraceOrigin::GENERATED;
    double trace_wall_ms = 0.0;        ///< Phase-1 getView() cost.
    sim::TraceTiming trace_timing;     ///< Generate vs load split.
    std::vector<sim::LabelledResult> rows;
    std::vector<double> row_wall_ms;   ///< Per-row timing cost.

    /**
     * Per-row sampling summary (index-matching rows). All entries
     * stay default (sampled == false) when the campaign ran without
     * a sampling plan or the row fell back to an exact run.
     */
    std::vector<sim::SampleSummary> row_sampling;

    /**
     * 1 when rows[s] holds a finished result (run now or restored
     * from the journal); 0 when the row failed or never ran.
     */
    std::vector<uint8_t> row_done;

    /**
     * Trace provenance restored from a journal: the unit skipped
     * phase 1, bundle stays null, and trace_instructions carries what
     * bundle->stats.instructions would have.
     */
    bool trace_from_journal = false;
    uint64_t trace_instructions = 0;

    std::vector<UnitError> errors;
    bool failed = false; ///< Any fatal error (missing rows).
};

/**
 * Deterministic backoff before retry @p attempt of work item @p salt:
 * capped exponential plus a jitter hashed from the item and attempt
 * (never wall clock), so a failing campaign replays identically in
 * any process. Sleeps; affects only wall_ms.
 */
void backoffSleep(const RunnerOptions &opts, const std::string &salt,
                  unsigned attempt);

/** A unit's phase-1 trace as resolvePhase1 found it. */
struct Phase1Outcome {
    const sim::ViewBundle *bundle = nullptr; ///< Null when it failed.
    sim::TraceOrigin origin = sim::TraceOrigin::GENERATED;
    sim::TraceTiming timing;
    std::shared_ptr<const sim::LivePointSet> lp; ///< If asked for.
    double wall_ms = 0.0; ///< The successful attempt.
    /** A unit-wide fatal error, or a "recovered after retry" note. */
    std::vector<UnitError> errors;
};

/**
 * The phase-1 job body: the trace of (app, mem, small) through
 * @p store (memory -> disk -> generate) and, when @p want_points,
 * its live points, under the fault policy of @p opts (campaign.phase1
 * failpoint, transient-fault retry, watchdog). Never throws.
 */
Phase1Outcome resolvePhase1(TraceStore &store, sim::AppId app,
                            const memsys::MemoryConfig &mem, bool small,
                            const RunnerOptions &opts, bool want_points);

/** What runPhase2Group produced. */
struct GroupOutcome {
    bool ok = false; ///< results/sampling index-match group.rows.
    std::vector<core::RunResult> results;
    std::vector<sim::SampleSummary> sampling;
    double wall_ms = 0.0; ///< The successful attempt, whole group.
    /** When !ok one fatal error per row (spec = its label); when ok
     *  after a retried fault, a "recovered after retry" note. */
    std::vector<UnitError> errors;
};

/**
 * The phase-2 job body: time @p group of a unit of @p app (declared
 * @p specs) on @p bundle under the fault policy of @p opts. One
 * campaign.phase2 failpoint evaluation per row, so a fault schedule
 * does not depend on grouping; a transient fault retries the whole
 * group (the lanes of a fused sweep are not separable mid-pass),
 * salted by the app and the row labels; the watchdog fails an
 * over-budget attempt. With sampling on and @p lp given, rows run
 * sampled on the flat view. Never throws.
 *
 * resolvePhase1 and this function are the whole job: the in-process
 * pool, the service's inline fallback and the service worker all run
 * them, so a cell executes identically wherever it is leased.
 */
GroupOutcome runPhase2Group(const sim::ViewBundle &bundle,
                            sim::AppId app,
                            const std::vector<sim::ModelSpec> &specs,
                            const sim::ExecGroup &group,
                            const RunnerOptions &opts,
                            const sim::LivePointSet *lp,
                            core::SimContext &ctx);

/**
 * An experiment campaign: the declarative job graph the bench
 * binaries hand to the worker pool.
 *
 * A *unit* is one (app, MemoryConfig, size) trace timed under a list
 * of ModelSpecs. The campaign deduplicates phase-1 trace generation
 * across units keyed by the full MemoryConfig, executes everything on
 * a fixed-size pool (phase-2 runs for a trace are enqueued the moment
 * that trace lands — traces still generating don't block finished
 * ones), and exposes results in declaration order. Phase 2 re-times
 * an immutable trace, so parallel runs share nothing and results are
 * bit-identical to serial execution.
 *
 * Failure model (DESIGN.md "Failure model"): a job failure never
 * crashes the campaign. Transient faults (util::IoError) retry with
 * deterministic capped backoff; permanent failures mark their unit
 * failed while every other unit completes. With a journal configured
 * (RunnerOptions::journal_path) each completed row is made durable
 * before the campaign moves on, and resume (RunnerOptions::resume)
 * re-executes only the missing work — producing results identical to
 * an uninterrupted run.
 */
class Campaign
{
  public:
    Campaign(std::string bench_name, RunnerOptions opts);

    /** Declare a unit; returns its index. Call before run(). */
    size_t add(sim::AppId app, std::vector<sim::ModelSpec> specs,
               const memsys::MemoryConfig &mem = {},
               bool small = false);

    /** Execute every declared unit; idempotent per declaration set. */
    void run();

    /**
     * One (unit, spec) phase-2 cell: the commit granule of the
     * sharded campaign service (stable across processes because both
     * sides hold the same declaration set).
     */
    struct CellRef {
        size_t unit = 0;
        size_t spec = 0;
        friend auto operator<=>(const CellRef &, const CellRef &) =
            default;
    };

    /**
     * One planned phase-2 group of one unit (group.rows are spec
     * indices): the lease granule of the sharded service — one
     * ASSIGN carries one GroupRef.
     */
    struct GroupRef {
        size_t unit = 0;
        sim::ExecGroup group;
    };

    /** Deterministic assignment of pending groups to worker shards. */
    struct ShardPlan {
        std::vector<std::vector<GroupRef>> shards;
        size_t cells = 0; ///< Total pending cells across shards.
    };

    /**
     * Phase A of run(): result slots, sampling validation, journal
     * replay (--resume), journal open, optional store GC. Returns
     * false when the campaign is fatally unrunnable — the sink is
     * already filled and run()/the service layer must not execute
     * anything. The sharded coordinator calls prepare()/finish()
     * around its own dispatch loop; run() wraps them around the
     * in-process pool. Calling run() after prepare() would reset
     * state — use one or the other.
     */
    bool prepare();

    /** Phase C of run(): journal failure note, close, sink fill. */
    void finish();

    /**
     * Shard the pending phase-2 work across @p workers processes of
     * @p worker_threads threads each. Each unit's pending rows are
     * planned exactly as run() plans them at --jobs workers *
     * worker_threads (sim::planPhase2 at the adaptive lane cap for
     * that many jobs); a
     * trace's groups stay together (one shard resolves each phase-1
     * trace once) and go to the currently lightest shard, heaviest
     * trace first. A shard deals its traces' groups round-robin, so
     * its first groups name distinct traces. Deterministic in the
     * declaration set + journal state alone.
     */
    ShardPlan shardPlan(unsigned workers, unsigned worker_threads) const;

    /** Declaration accessors for the service layer's wire format. */
    sim::AppId unitApp(size_t u) const { return units_.at(u).app; }
    const memsys::MemoryConfig &unitMem(size_t u) const
    {
        return units_.at(u).mem;
    }
    bool unitSmall(size_t u) const { return units_.at(u).small; }
    const std::vector<sim::ModelSpec> &unitSpecs(size_t u) const
    {
        return units_.at(u).specs;
    }
    const std::string &benchName() const { return bench_name_; }

    /** Outcome of feeding one remote row result into the campaign. */
    enum class Accept {
        OK,        ///< Recorded and journalled.
        DUPLICATE, ///< Already done with the identical result.
        MISMATCH,  ///< Already done with a *different* result.
        BAD_REF,   ///< (unit, spec) outside the declaration set.
    };

    /**
     * Record a phase-2 row computed by a worker process. First result
     * wins: an at-least-once redeliver of the same bits is DUPLICATE
     * (harmless), different bits are MISMATCH (the caller must treat
     * the run as poisoned — two workers disagreed on a deterministic
     * cell). Coordinator-thread only; not safe against run().
     */
    Accept acceptRemoteRow(size_t unit, size_t spec,
                           const core::RunResult &result,
                           const sim::SampleSummary &sampling,
                           double wall_ms);

    /**
     * Record a unit's phase-1 trace provenance as reported by a
     * worker (bundle-less, like a journal-restored unit). First
     * report wins; returns false only for a bad unit/origin.
     */
    bool acceptRemoteTrace(size_t unit, const std::string &origin,
                           uint64_t instructions, double wall_ms,
                           double gen_ms, double load_ms);

    /** Record a worker-reported failure against a cell/unit. */
    void recordRemoteError(size_t unit, const std::string &spec_label,
                           const std::string &site,
                           const std::string &message, bool fatal);

    /**
     * Coordinator fallback: execute one group in-process (phase 1
     * through the shared cache, phase 2 with the normal
     * retry/journal path). Rows already done are skipped; afterwards
     * result(unit).row_done says which rows finished.
     */
    void runGroupInline(const GroupRef &ref);

    /** The journal (service layer appends epoch/lease records). */
    CampaignJournal &journal() { return journal_; }

    /** Highest epoch record replayed from the journal (0 fresh). */
    uint64_t resumedEpoch() const { return journal_meta_.last_epoch; }

    size_t size() const { return units_.size(); }
    const UnitResult &result(size_t unit) const
    {
        return results_.at(unit);
    }

    /** Structured records, populated by run(). */
    const ResultSink &sink() const { return sink_; }

    /** Export the sink as JSON; no-op returning true if @p path empty. */
    bool writeJson(const std::string &path) const;

    const RunnerOptions &options() const { return opts_; }

    /** True when every declared row finished (exit-code contract). */
    bool ok() const;

    /**
     * Human-readable account of what failed; "" when ok(). Bench
     * binaries print this to stderr before exiting non-zero.
     */
    std::string failureSummary() const;

    /**
     * FNV-1a over the full declaration set; the journal refuses to
     * resume under a different signature.
     */
    uint64_t signature() const;

    /** Store-layer counters for the executed run. */
    StoreStats storeStats() const { return store_.stats(); }

    /** What the --store-gc pass pruned ({} when not requested). */
    StoreGcStats storeGcStats() const { return store_gc_stats_; }

  private:
    struct Unit {
        sim::AppId app;
        memsys::MemoryConfig mem;
        bool small;
        std::vector<sim::ModelSpec> specs;
    };

    void fillSink();
    void replayJournal();
    /**
     * The lane cap run() and shardPlan() plan with at @p jobs
     * parallel workers: sim::adaptiveLaneCap over the pending DS
     * rows.
     */
    size_t laneCap(unsigned jobs) const;
    /**
     * Execute one phase-2 group of unit @p u (runPhase2Group) and
     * commit it: on success every row journals individually, so
     * --resume granularity is one cell no matter how rows were
     * grouped.
     */
    void runGroup(const sim::ViewBundle &bundle, size_t u,
                  const sim::ExecGroup &group,
                  const std::shared_ptr<const sim::LivePointSet> &lp);

    /** Adopt @p p1's resolved trace as unit @p u's (recordTrace). */
    void adoptTrace(size_t u, const Phase1Outcome &p1);
    /** Set unit @p u's trace provenance and journal it. */
    void recordTrace(size_t u, sim::TraceOrigin origin,
                     uint64_t instructions, double wall_ms,
                     const sim::TraceTiming &timing);
    void recordError(size_t unit, UnitError err);
    void recordCampaignError(UnitError err);

    std::string bench_name_;
    RunnerOptions opts_;
    TraceStore store_;
    std::vector<Unit> units_;
    std::vector<UnitResult> results_;
    ResultSink sink_;
    CampaignJournal journal_;
    JournalMeta journal_meta_; ///< Epoch/lease records from replay.
    StoreGcStats store_gc_stats_;
    std::vector<UnitError> campaign_errors_; ///< Not tied to a unit.
    mutable std::mutex err_mu_; ///< Guards errors/failed across jobs.
};

} // namespace dsmem::runner

#endif // DSMEM_RUNNER_CAMPAIGN_H
