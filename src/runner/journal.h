#ifndef DSMEM_RUNNER_JOURNAL_H
#define DSMEM_RUNNER_JOURNAL_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/types.h"
#include "sim/sampling.h"

namespace dsmem::runner {

/** One completed phase-2 row, as recorded in the campaign journal. */
struct JournalRow {
    size_t unit = 0;
    size_t spec = 0;
    std::string label;
    core::RunResult result;
    double wall_ms = 0.0;

    /**
     * Statistical-sampling summary of the row. Journalled (and
     * parsed) only when sampling.sampled is set; rows of an exact
     * campaign serialize byte-identically to pre-sampling builds.
     */
    sim::SampleSummary sampling;
};

/** One unit's phase-1 trace provenance, as recorded in the journal. */
struct JournalTrace {
    size_t unit = 0;
    std::string origin; ///< "generated" / "disk" / "memory".
    uint64_t instructions = 0;
    double wall_ms = 0.0;
    double gen_ms = 0.0;
    double load_ms = 0.0;
};

/**
 * Advisory dispatch-audit record: cell (unit,spec) was leased to a
 * worker under a coordinator epoch. Leases never gate resume — the
 * row record is the only commit record — but they let a resumed
 * coordinator and post-mortem tooling see which worker held which
 * cell when the process died.
 */
struct JournalLease {
    size_t unit = 0;
    size_t spec = 0;
    uint32_t worker = 0; ///< worker slot id
    uint64_t epoch = 0;  ///< coordinator epoch issuing the lease
};

/** Service-layer side channel recovered by replay(). */
struct JournalMeta {
    uint64_t last_epoch = 0;          ///< highest epoch record seen
    std::vector<JournalLease> leases; ///< in append order
};

/**
 * Crash-safe campaign progress journal (the --journal/--resume
 * mechanism).
 *
 * The journal is an append-only JSONL file. The first line is a
 * header naming the campaign and carrying a *signature* — an FNV-1a
 * hash over the full declaration set (bench name, every unit's app,
 * memory configuration, size, and spec labels) — so a journal can
 * never silently resume a campaign it does not belong to. Each
 * subsequent line records one completed piece of work:
 *
 *   {"t":"trace","unit":U,...}   phase-1 trace resolved for unit U
 *   {"t":"row","unit":U,"spec":S,...}  phase-2 row (U,S) finished,
 *                                      with its full RunResult
 *   {"t":"epoch","epoch":E,...}  a (sharded-service) coordinator
 *                                took over this campaign; E increases
 *                                across restarts
 *   {"t":"lease","unit":U,"spec":S,...}  advisory: cell dispatched
 *                                        to a worker (audit only;
 *                                        one per row of a leased
 *                                        group; a dispatch round's
 *                                        records are appended
 *                                        together)
 *
 * Durability: every append writes its complete line(s) and fsyncs
 * before returning, so after a crash the file holds a prefix of the
 * completed work plus at most one torn final line. replay() ignores
 * a trailing partial line (and nothing else), which is exactly the
 * crash-consistency the append needs — a record is either fully
 * durable or ignored.
 *
 * A journal write failure is not allowed to take the campaign down:
 * the journal marks itself failed, stops writing, and the campaign
 * surfaces the failure through its error channel while the run
 * completes normally (it just cannot be resumed from this journal).
 */
class CampaignJournal
{
  public:
    CampaignJournal() = default;
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    /**
     * Open @p path for appending, writing the header when the file is
     * new or empty. A non-empty file must already carry a campaign
     * header whose signature matches @p signature — appending this
     * campaign's records into some other campaign's journal would
     * corrupt it, so a mismatch (or an unreadable header) refuses the
     * open. A torn final line left by a crash mid-append is truncated
     * away so the next record starts on a fresh line; otherwise the
     * first append would extend the partial record into a merged line
     * whose first-occurrence field extraction could resurrect it as a
     * syntactically valid chimera row on a later resume.
     *
     * @p resume selects what a matching non-empty journal means:
     * under --resume its records are kept and new ones appended;
     * without it the campaign is restarting from scratch, so the file
     * is truncated and re-headered (stale records would otherwise
     * shadow or duplicate the fresh run's).
     *
     * Returns false with a diagnostic in @p err on failure; the
     * journal stays inactive.
     */
    bool open(const std::string &path, const std::string &bench,
              uint64_t signature, bool resume, std::string *err);

    /**
     * Parse an existing journal. Returns false (diagnostic in @p err)
     * when the file cannot be read or the header's signature does not
     * match @p signature. A trailing torn line is skipped silently;
     * any other malformed line fails the replay (a corrupt journal
     * must not resume into silently wrong results).
     */
    static bool replay(const std::string &path, uint64_t signature,
                       std::vector<JournalRow> &rows,
                       std::vector<JournalTrace> &traces,
                       std::string *err,
                       JournalMeta *meta = nullptr);

    /** Thread-safe, durable appends; no-ops once inactive/failed. */
    void appendTrace(const JournalTrace &t);
    void appendRow(const JournalRow &r);
    /** Coordinator takeover marker (@p workers = initial pool size). */
    void appendEpoch(uint64_t epoch, uint32_t workers);
    /**
     * One dispatch round's lease records (one per row of every group
     * it leases), made durable together: one write and one fsync for
     * the batch.
     */
    void appendLeases(const std::vector<JournalLease> &leases);

    bool active() const { return fd_ >= 0 && !failed_; }
    /** True when an append failed and journalling shut itself off. */
    bool failed() const { return failed_; }
    /** Message of the first append failure ("" when none). */
    const std::string &failure() const { return failure_; }

    void close();

  private:
    /** Write @p lines (each '\n'-terminated) and fsync once. */
    void appendLines(const std::string &lines);

    int fd_ = -1;
    std::mutex mu_;
    bool failed_ = false;
    std::string failure_;
};

} // namespace dsmem::runner

#endif // DSMEM_RUNNER_JOURNAL_H
