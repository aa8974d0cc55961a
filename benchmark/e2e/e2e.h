#ifndef DSMEM_BENCHMARK_E2E_H
#define DSMEM_BENCHMARK_E2E_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "runner/campaign.h"
#include "sim/app_registry.h"
#include "sim/executor.h"

// ------------------------------------------------------------------
// dsmem_e2e: the end-to-end campaign benchmark program. One process
// runs one workload (see workloads.cc) in a closed loop, or, traced,
// re-drives every layer through its public entry point (layers.cc).
// Spans are taken only here, around calls into the library.
// ------------------------------------------------------------------

namespace dsmem::e2e {

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0;   ///< Timed-loop length.
    unsigned iters = 0;      ///< Fixed iteration count; 0 = use seconds.
    unsigned setup_reps = 5; ///< Set-ups timed; setup_s is their median.
    bool trace = false;      ///< Per-layer run instead of the timed loop.
    bool smoke = false;      ///< Small apps, 256Ki-instruction synthetic.
    bool record = false;     ///< No reference: report digests only.
    std::string golden_fig3;   ///< Hex digest every figure3 run must hit.
    std::string golden_stream; ///< Hex digest for this seed; "" = oracle.
    std::string spans_path;    ///< Chrome trace-event output (traced).
};

/** Steady-clock seconds since an arbitrary epoch. */
double now();

double median(std::vector<double> v);

/** Linear-interpolated quantile, @p q in [0, 1]. */
double quantile(std::vector<double> v, double q);

/**
 * In-memory span recorder, written as Chrome trace events at exit.
 * Scopes always time themselves (layer metrics read their durations);
 * they are recorded only while `on` is set, so an untraced iteration
 * pays two clock reads per scope and nothing else.
 */
class SpanLog
{
  public:
    struct Span {
        std::string name;
        std::string cat; ///< The module the span's call belongs to.
        std::string detail;
        double start = 0.0;
        double end = 0.0;
        int pass = -1;
        uint32_t id = 0;
        uint32_t parent = 0; ///< Enclosing span's id; 0 = none.
    };

    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, const char *cat,
              std::string detail = {});
        ~Scope() { stop(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** End the span (idempotent); returns its length in seconds. */
        double stop();

      private:
        SpanLog &log_;
        const char *name_;
        const char *cat_;
        std::string detail_;
        double start_;
        double length_ = 0.0;
        uint32_t id_ = 0;
        uint32_t parent_ = 0;
        bool open_ = true;
    };

    bool on = false;
    int pass = -1; ///< Layer pass the next spans belong to.

    const std::vector<Span> &spans() const { return spans_; }
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<uint32_t> open_; ///< Ids of recording scopes, innermost last.
    uint32_t next_id_ = 1;
};

/** Result hash per cell, keyed "unit|spec label". */
using CellHashes = std::map<std::string, uint64_t>;

/** FNV-1a over the cell key and every RunResult field. */
uint64_t cellHash(const std::string &key, const core::RunResult &r);

/** Digest of a cell set; independent of the order cells finished in. */
uint64_t digestOf(const CellHashes &cells);

std::string hex(uint64_t v);

/** One timed iteration of a workload. */
struct Iteration {
    double wall_s = 0.0;
    uint64_t instructions = 0; ///< Retired, summed over phase-2 cells.
    size_t cells_failed = 0;   ///< Declared cells that got no result.
    CellHashes cells;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One set-up; a later call replaces the previous one's state. */
    virtual void setup() = 0;

    /** One closed-loop iteration; the clock covers only the work. */
    virtual Iteration iterate() = 0;

    /** Cells an iteration declares. */
    virtual size_t cells() const = 0;

    /**
     * Digest of the same cells computed along another path than the
     * one iterate() measures; 0 when the workload has none.
     */
    virtual uint64_t oracle() { return 0; }
};

/** @p dir is a scratch directory removed when dsmem_e2e exits. */
std::unique_ptr<Workload> makeWorkload(const Options &opts,
                                       const std::string &dir,
                                       SpanLog &log);

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What the traced layer re-drive measured and whether it agreed. */
struct LayerReport {
    std::vector<Metric> metrics;
    size_t cells = 0;  ///< Cells the re-drive ran.
    size_t failed = 0; ///< ...that disagreed with a reference.
};

/**
 * Re-drive every layer serially through its public entry point: one
 * unrecorded warm-up pass, then five traced passes; each metric is the
 * median over the traced passes. @p cold selects the campaign shape
 * the campaign.* metrics compare against (fresh store vs filled).
 */
LayerReport measureLayers(const Options &opts, const std::string &dir,
                          SpanLog &log, bool cold);

// ---- helpers shared by workloads.cc and layers.cc ------------------

/** Load-generating threads and processes: min(4, nproc). */
unsigned loadJobs();

/** The five apps in a seed-dependent declaration order. */
std::vector<sim::AppId> appOrder(uint64_t seed);

/** Declare the figure3 campaign (every app x figure3Columns()). */
void declareFigure3(runner::Campaign &campaign, const Options &opts);

runner::RunnerOptions campaignOptions(const std::string &store,
                                      unsigned jobs);

/** Cells of a finished campaign as an Iteration (wall_s left 0). */
Iteration collect(const runner::Campaign &campaign);

/** The stream_sweep specs: RC DS at eight window sizes. */
std::vector<sim::ModelSpec> streamSpecs();

/** All streamSpecs() rows as one fused group. */
sim::ExecGroup streamGroup();

/** Instructions of the synthetic trace stream_sweep sweeps. */
size_t streamInstructions(const Options &opts);

/** Write the seed's synthetic trace as a bundle file. */
void writeSyntheticBundle(const Options &opts, const std::string &path);

/**
 * Run @p body in a forked child and return the string it returned
 * (sent back through a pipe); throws when the child fails. Used so
 * set-up work that holds a whole flat trace or a 16-processor
 * simulation never raises the measuring process's peak RSS.
 */
std::string inChild(const std::function<std::string()> &body);

} // namespace dsmem::e2e

#endif // DSMEM_BENCHMARK_E2E_H
