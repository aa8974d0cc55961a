#ifndef DSMEM_RUNNER_RESULT_SINK_H
#define DSMEM_RUNNER_RESULT_SINK_H

#include <iosfwd>
#include <string>
#include <vector>

#include "core/types.h"
#include "memsys/dram.h"

namespace dsmem::runner {

/** @p s as the body of a JSON string literal (quotes not included). */
std::string jsonEscape(const std::string &s);

/** @p v with 6 fixed digits: wall-clock fields of the sink and journal. */
std::string jsonDouble(double v);

/** Provenance and cost of one phase-1 trace the campaign touched. */
struct TraceRecord {
    std::string app;
    uint32_t hit_latency = 1;
    uint32_t miss_latency = 50;
    std::string protocol; ///< "MSI" / "MESI".
    uint32_t banks = 0;
    bool small = false;
    std::string origin;   ///< "generated" / "disk" / "memory".
    std::string file;     ///< On-disk path ("" when store disabled).
    uint64_t instructions = 0;
    double wall_ms = 0.0;

    /**
     * Where wall_ms went: running the phase-1 multiprocessor
     * simulation and/or deserializing the bundle from the store.
     * Both stay zero when the bundle was already memoized in-process.
     */
    double gen_ms = 0.0;
    double load_ms = 0.0;

    /**
     * Contention accounting, emitted only when the generating
     * MemoryConfig enabled the corresponding model — a contention-free
     * export stays byte-identical to pre-contention builds.
     * `has_contention` gates the toy bank model's queueing counter;
     * `has_dram` gates the DRAM block (geometry + scheduler + the
     * traced processor's DramAccessStats).
     */
    bool has_contention = false;
    uint64_t contention_cycles = 0;
    bool has_dram = false;
    uint32_t dram_banks = 0;
    uint32_t dram_row_bytes = 0;
    std::string dram_sched;
    memsys::DramAccessStats dram_stats;
};

/** One phase-2 timing run: the unit of the JSON result export. */
struct RunRecord {
    std::string app;
    std::string spec;          ///< ModelSpec::label().
    std::string trace_origin;  ///< Provenance of the trace it timed.
    core::RunResult result;
    double hidden_read = 0.0;  ///< vs. the unit's BASE row (0 if none).
    double wall_ms = 0.0;

    /**
     * Statistical-sampling summary, emitted as a "sampling" JSON
     * member only when has_sampling is set — an exact campaign's
     * export stays byte-identical to pre-sampling builds (the same
     * conditional-extension pattern as TraceRecord's "dram" block).
     */
    bool has_sampling = false;
    uint64_t sample_windows = 0;  ///< K measured windows.
    uint64_t sample_measured = 0; ///< Instructions run detailed.
    double cpi_mean = 0.0;        ///< Mean window CPI.
    double ci95 = 0.0;            ///< Student-t 95% half-width.
};

/**
 * One failure the campaign recorded. Fatal entries correspond to
 * missing runs (the exit-code contract: any fatal error exits
 * non-zero); non-fatal entries are absorbed faults kept for
 * observability (recovered retries, quarantined files, failed cache
 * renames).
 */
struct ErrorRecord {
    std::string app;     ///< "" = campaign-wide (not tied to a unit).
    std::string spec;    ///< "" = unit-wide (phase-1 / store / journal).
    std::string site;    ///< Failing boundary ("phase1", "phase2", ...).
    std::string message;
    int attempts = 1;    ///< Attempts consumed, including the last.
    bool fatal = true;
};

/**
 * What the campaign's trace store read from its bundle files
 * (runner::StoreStats): it varies with the store's temperature, so
 * only a non-stable export carries it, and only when a file-backed
 * trace fetched anything.
 */
struct StoreRecord {
    uint64_t chunk_fetches = 0;
    uint64_t fetch_bytes = 0;
    uint64_t fetch_verify_failures = 0;
};

/**
 * Collects every run of a campaign as machine-readable records and
 * exports them as JSON alongside the human-readable tables. Records
 * are appended in declaration order (units, then specs within a
 * unit), so the export is deterministic regardless of worker
 * scheduling; only the wall_ms fields vary between invocations.
 *
 * Schema (documented in EXPERIMENTS.md):
 *   { "schema_version": 1, "bench": ..., "jobs": N,
 *     "trace_dir": ..., "traces": [TraceRecord...],
 *     "runs": [RunRecord...] }
 * plus an "errors": [ErrorRecord...] member, present only when the
 * campaign recorded at least one error — a fault-free export is
 * byte-identical to what pre-error-channel builds produced — and a
 * "store": StoreRecord member, present only when one was set with a
 * fetch or a refused slice to report.
 */
class ResultSink
{
  public:
    void setContext(std::string bench, unsigned jobs,
                    std::string trace_dir);

    void addTrace(TraceRecord record);
    void addRun(RunRecord record);
    void addError(ErrorRecord record);
    void setStore(StoreRecord record) { store_ = record; }
    void clear();

    const std::vector<TraceRecord> &traces() const { return traces_; }
    const std::vector<RunRecord> &runs() const { return runs_; }
    const std::vector<ErrorRecord> &errors() const { return errors_; }

    void writeJson(std::ostream &os) const;

    /** Write to @p path; returns false (with no throw) on I/O error. */
    bool writeJsonFile(const std::string &path) const;

  private:
    std::string bench_;
    unsigned jobs_ = 0;
    std::string trace_dir_;
    std::vector<TraceRecord> traces_;
    std::vector<RunRecord> runs_;
    std::vector<ErrorRecord> errors_;
    StoreRecord store_;
};

} // namespace dsmem::runner

#endif // DSMEM_RUNNER_RESULT_SINK_H
