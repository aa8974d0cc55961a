#ifndef DSMEM_BENCH_BENCH_ARGS_H
#define DSMEM_BENCH_BENCH_ARGS_H

#include <string>

#include "runner/campaign.h"
#include "runner/runner.h"

namespace dsmem::bench {

/**
 * Command-line flags shared by every bench binary:
 *
 *   --small           run the reduced application configurations
 *   --full            run the paper-scaled configurations
 *   --jobs N          worker threads (default: util::hostCores())
 *   --trace-dir DIR   persistent phase-1 trace cache directory
 *                     (default .dsmem-cache/)
 *   --no-trace-store  disable the persistent trace cache
 *   --json FILE       also write structured results as JSON
 *   --journal FILE    record completed work in a crash-safe journal
 *   --resume          replay --journal and run only missing work
 *   --max-attempts N  retries for transient faults (default 3)
 *   --job-timeout-ms N  fail jobs that exceed this wall-clock budget
 *   --repeat N        timing rounds per measurement; each bench keeps
 *                     the best round after one untimed warmup
 *                     (0 = the bench's own default)
 *   --no-fuse         disable fused window sweeps in campaign phase 2
 *                     (measurement kill-switch; results identical)
 *   --sample-period U   enable SMARTS-style sampling: one detailed
 *                       window per U instructions (0 = exact runs)
 *   --sample-detailed N measured instructions per window
 *   --sample-warmup N   detailed-but-unmeasured prefix per window
 *   --sample-seed S     offset-hash seed (default 1)
 *   --cold            bench_hotloop: drop and reload the TraceView
 *                     between timing rounds (memory-bound regime)
 *   --stream-gb G     bench_hotloop: streamed synthetic-trace
 *                     footprint in GB for the memory_bound regime
 *                     (0 = skip the regime; default: 0.25 at --small,
 *                     4.0 at --full)
 *   --simd MODE       auto = best sweep backend the build and CPU
 *                     support (default, also honors DSMEM_SIMD=scalar
 *                     in the environment); scalar = force the scalar
 *                     struct-of-lanes instantiation
 *   --stable-json     canonicalize the JSON export to its
 *                     deterministic projection (wall-clock zeroed,
 *                     environment fields blanked) so runs are
 *                     byte-comparable across job/worker counts
 *   --store-gc        garbage-collect the trace store before running
 *   --store-gc-age-days N  GC age threshold (default 7)
 *   --list-failpoints print every registered failpoint site and exit
 *
 * Unknown flags print a usage message and exit(2).
 */
struct BenchArgs {
    bool small = false;
    unsigned jobs = 0; ///< 0 = util::hostCores().
    std::string trace_dir = ".dsmem-cache";
    std::string json_path; ///< Empty = no JSON export.
    std::string journal_path; ///< Empty = no journal.
    bool resume = false;
    unsigned max_attempts = 3;
    unsigned job_timeout_ms = 0; ///< 0 = no watchdog.
    unsigned repeat = 0; ///< Best-of-N rounds; 0 = bench default.
    bool no_fuse = false;
    sim::SamplingPlan sampling; ///< period == 0: exact runs.
    bool cold = false; ///< bench_hotloop: reload the view per round.
    double stream_gb = -1.0; ///< Memory-bound footprint; <0 = scale default.
    std::string simd; ///< "auto" / "scalar"; empty = env-seeded default.
    bool stable_json = false; ///< Deterministic JSON projection.
    bool store_gc = false;    ///< GC the trace store before running.
    uint64_t store_gc_age_s = 7 * 24 * 3600;

    runner::RunnerOptions runnerOptions() const
    {
        runner::RunnerOptions opts;
        opts.jobs = jobs;
        opts.trace_dir = trace_dir;
        opts.journal_path = journal_path;
        opts.resume = resume;
        opts.max_attempts = max_attempts;
        opts.job_timeout_ms = job_timeout_ms;
        opts.fuse_sweeps = !no_fuse;
        opts.sampling = sampling;
        opts.stable_json = stable_json;
        opts.store_gc = store_gc;
        opts.store_gc_age_s = store_gc_age_s;
        return opts;
    }

    /** repeat with the 0 default resolved to @p bench_default. */
    unsigned resolvedRepeat(unsigned bench_default) const
    {
        return repeat == 0 ? bench_default : repeat;
    }
};

/**
 * Parse @p argv. @p default_small seeds BenchArgs::small (most
 * benches default to the paper-scaled inputs; bench_traced_proc
 * defaults to small). On --help prints usage and exits 0; on an
 * unknown flag or malformed value prints usage to stderr and
 * exits 2.
 */
BenchArgs parseBenchArgs(int argc, char **argv,
                         bool default_small = false);

/**
 * Shared campaign epilogue: export JSON, print the failure summary
 * to stderr, and return the process exit code — 0 only when every
 * declared row finished and the export (if any) was written. Every
 * campaign bench ends with `return bench::finishCampaign(...)`.
 */
int finishCampaign(const runner::Campaign &campaign,
                   const BenchArgs &args);

} // namespace dsmem::bench

#endif // DSMEM_BENCH_BENCH_ARGS_H
