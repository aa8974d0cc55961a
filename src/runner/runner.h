#ifndef DSMEM_RUNNER_RUNNER_H
#define DSMEM_RUNNER_RUNNER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/sampling.h"
#include "sim/stream_exec.h"

namespace dsmem::runner {

/** Knobs shared by every runner-driven bench binary. */
struct RunnerOptions {
    unsigned jobs = 0; ///< Worker threads; 0 = util::hostCores().
    std::string trace_dir = ".dsmem-cache"; ///< "" disables the store.

    /**
     * Fault-tolerance policy (see DESIGN.md "Failure model").
     * Transient faults (util::IoError) retry up to max_attempts with
     * capped exponential backoff; anything else fails the unit
     * permanently. The backoff jitter is a hash of the failing work
     * item and attempt number — never wall clock — so retry schedules
     * replay deterministically.
     */
    unsigned max_attempts = 3;
    unsigned backoff_base_ms = 10;
    unsigned backoff_cap_ms = 1000;

    /**
     * Per-job wall-clock budget in milliseconds; a job that finishes
     * over budget is marked failed and its result discarded. 0
     * disables the watchdog.
     */
    unsigned job_timeout_ms = 0;

    /** Campaign journal path; "" disables journalling. */
    std::string journal_path;
    /** Replay journal_path and re-run only the missing work. */
    bool resume = false;

    /**
     * SMARTS-style statistical sampling for phase-2 DS cells
     * (sim::SamplingPlan). Disabled by default (period == 0): every
     * row runs exactly and campaign output is byte-identical to
     * builds without the subsystem. When enabled, DS rows report a
     * scaled estimate with a 95% CI and the plan's parameters join
     * the campaign signature and the live-point store key.
     */
    sim::SamplingPlan sampling;

    /**
     * Canonicalize the JSON export to its deterministic projection:
     * wall-clock fields zeroed, jobs/trace_dir/file/origin blanked,
     * absorbed-error records and phase-1 aggregate counters omitted.
     * Two runs of the same declaration set — any job count, any
     * worker count, chaos or clean, resumed or not — then export
     * byte-identically. The multi-process chaos smoke diffs these.
     */
    bool stable_json = false;

    /**
     * Garbage-collect the trace store before running: prune
     * quarantined *.corrupt.* corpses, orphaned temp files, and
     * stale bundles older than store_gc_age_s, never touching this
     * campaign's own bundles (see TraceStore::gc).
     */
    bool store_gc = false;
    uint64_t store_gc_age_s = 7 * 24 * 3600;

    /**
     * Streaming-executor residency policy (sim/stream_exec.h): when
     * the store loads a bundle whose flat view would spill the LLC
     * (Auto) or always (On), the trace stays chunk-compressed and
     * every phase-2 row decodes it tile by tile instead of reading
     * a flat SoA pass — same results, a fraction of the resident
     * bytes. Off restores the unconditional flat view. On and Off are
     * for tests and benchmarks that pin one residency.
     */
    sim::StreamExec stream_exec = sim::StreamExec::Auto;

    /** jobs with the 0 default resolved. */
    unsigned resolvedJobs() const;
};

/**
 * A fixed-size worker pool executing an experiment campaign's job
 * graph. Jobs are plain closures; dependency edges are expressed by
 * having a finished job submit() its dependents (phase-2 timing runs
 * are enqueued by their trace's phase-1 job the moment the trace
 * lands — no global barrier between phases). wait() drains the graph.
 *
 * Scheduling order is unspecified; callers must make results
 * order-independent (each job writes its own pre-allocated slot).
 */
class Runner
{
  public:
    explicit Runner(unsigned jobs);
    ~Runner();

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** Enqueue a job; safe to call from inside a running job. */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job (including jobs submitted by
     * running jobs) has finished.
     */
    void wait();

    unsigned jobs() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Called (possibly concurrently) for every exception that escapes
     * a job. Install before submitting. Campaign-managed jobs catch
     * their own failures; this is the pool's last line of defense —
     * without it an escaped exception would std::terminate the worker
     * and strand wait() forever.
     */
    void setUncaughtHandler(std::function<void(const std::string &)> h)
    {
        on_uncaught_ = std::move(h);
    }

    /** Number of jobs whose exception escaped to the pool. */
    uint64_t uncaughtErrors() const
    {
        return uncaught_.load(std::memory_order_relaxed);
    }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable work_cv_;  ///< Queue became non-empty.
    std::condition_variable idle_cv_;  ///< pending_ hit zero.
    size_t pending_ = 0;               ///< Queued + running jobs.
    bool stop_ = false;
    std::function<void(const std::string &)> on_uncaught_;
    std::atomic<uint64_t> uncaught_{0};
};

} // namespace dsmem::runner

#endif // DSMEM_RUNNER_RUNNER_H
