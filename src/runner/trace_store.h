#ifndef DSMEM_RUNNER_TRACE_STORE_H
#define DSMEM_RUNNER_TRACE_STORE_H

#include <condition_variable>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/sampling.h"
#include "sim/stream_exec.h"
#include "sim/trace_bundle.h"

namespace dsmem::runner {

/**
 * Version of the on-disk bundle container. Bump whenever the bundle
 * header layout, any serialized stats struct, or the embedded trace
 * format (trace::kTraceFormatVersion) changes meaning.
 *
 * v2 streams: a fixed header (magic, version), then the checksummed
 * region — stats structs as raw u64s, mp_cycles, verified, and the
 * embedded DSMT v2 trace — then a trailing u64 FNV-1a checksum over
 * that region, folded over little-endian 64-bit words (final partial
 * word zero-extended) so verification costs one multiply per 8 bytes.
 * Both writer and reader fold into the hash as they stream through a
 * block buffer, so peak extra memory is one block rather than one
 * serialized bundle.
 *
 * Readers refuse every other version with util::FormatError.
 *
 * v3 extends v2 with the DRAM model's accounting: the hashed region
 * gains, between the `verified` byte and the embedded trace, the
 * traced processor's six DramAccessStats counters plus the per-bank
 * summary table. The writer emits v3 *only* for bundles whose DRAM
 * summary is non-empty (i.e. generated with dram.banks > 0) — a
 * default-configuration bundle keeps writing v2, byte-identical to
 * the seed, so enabling the subsystem can never perturb existing
 * caches or golden outputs.
 */
inline constexpr uint32_t kBundleFormatVersion = 2;
inline constexpr uint32_t kBundleFormatVersionDram = 3;

/**
 * Container version bundles for @p mem are stored under: v3 when the
 * DRAM model is active (its stats need the extended layout), v2
 * otherwise. Part of the file name, so the two layouts never collide.
 */
uint32_t bundleVersionFor(const memsys::MemoryConfig &mem);

/** Serialize a full TraceBundle (stats + trace) to @p os as v2. */
void saveBundle(const sim::TraceBundle &bundle, std::ostream &os);

/**
 * Serialize a ViewBundle: the same bytes saveBundle writes for the
 * TraceBundle of the same generation. A chunked bundle writes its
 * resident sections as they are.
 */
void saveBundle(const sim::ViewBundle &bundle, std::ostream &os);

/**
 * Deserialize a v2 or v3 bundle. Throws util::FormatError (bad
 * magic, unsupported version, checksum mismatch, truncation, trailing
 * garbage, malformed embedded trace, implausible section size) or
 * util::IoError (stream failure / injected fault) — never crashes or
 * over-allocates on malformed input.
 */
sim::TraceBundle loadBundle(std::istream &is);

/**
 * Deserialize straight into a ViewBundle: the embedded trace's SoA
 * sections decode directly into TraceView arrays without
 * materializing the AoS trace. Same failure modes as loadBundle.
 *
 * @p stream_exec is the streaming-residency policy: the bundle's
 * stats section (decoded before the embedded trace) sizes the flat
 * view, and when sim::shouldStream says it would spill the LLC the
 * trace decodes straight into a chunk-compressed trace::ChunkedView
 * (ViewBundle::chunked, view left null) — the flat SoA columns are
 * never materialized, cutting the loader's peak memory to roughly the
 * compressed trace.
 */
sim::ViewBundle
loadBundleView(std::istream &is,
               sim::StreamExec stream_exec = sim::StreamExec::Off);

/**
 * Counters for everything the store did, including the failures it
 * absorbed (the store is a cache: most errors surface as misses plus
 * a counter, not as exceptions).
 */
struct StoreStats {
    uint64_t loads = 0;         ///< Disk reads that found a file.
    uint64_t load_hits = 0;     ///< ...that deserialized cleanly.
    uint64_t format_errors = 0; ///< Corrupt files (quarantined).
    uint64_t io_errors = 0;     ///< Transient read faults (rethrown).
    uint64_t stores = 0;        ///< Disk writes attempted.
    uint64_t store_errors = 0;  ///< ...that failed (bundle not cached).
    uint64_t rename_errors = 0; ///< fs::rename failures, any path.
    uint64_t remove_errors = 0; ///< fs::remove failures, any path.
    uint64_t quarantined = 0;   ///< Files renamed to *.corrupt.*.
};

/**
 * Policy for TraceStore::gc() — pruning of store garbage that used to
 * accumulate forever across campaigns: quarantined `*.corrupt.*`
 * corpses, orphaned `*.tmp<pid>` writer leftovers, and stale bundles.
 * Anything whose basename appears in @p keep is never touched — the
 * campaign lists its own bundle/live-point names there, so a GC can
 * never eat a file a live journal's resume depends on.
 */
struct StoreGcOptions {
    /** Prune corpses / current-format bundles older than this. */
    uint64_t max_age_s = 7 * 24 * 3600;
    /** Prune `*.tmp<pid>` leftovers older than this (a live writer's
     *  temp file is seconds old; an orphan survives its process). */
    uint64_t tmp_age_s = 3600;
    /** Keep at most this many newest corpses per bundle name
     *  (matches TraceStore::kMaxQuarantinePerName). */
    int max_corrupt_per_name = 4;
    /** Basenames never pruned (the campaign's own keys). */
    std::vector<std::string> keep;
};

/** What one gc() pass did. */
struct StoreGcStats {
    uint64_t scanned = 0;         ///< Regular files examined.
    uint64_t removed_corrupt = 0; ///< Quarantine corpses pruned.
    uint64_t removed_stale = 0;   ///< Stale/aged bundles pruned.
    uint64_t removed_tmp = 0;     ///< Orphaned temp files pruned.
    uint64_t kept = 0;            ///< Protected by the keep list.
    uint64_t errors = 0;          ///< stat/remove failures (absorbed).
};

/**
 * The one place a phase-1 trace is resolved: getView() memoizes per
 * (app, full MemoryConfig, small) in this process, else loads the
 * bundle from the store directory, else generates it (and persists
 * it). A bench re-times one trace under many processor models
 * without re-running the multiprocessor phase, and a warm directory
 * skips phase 1 across processes.
 *
 * Files live in one cache directory (created on first store) under a
 * content-derived name encoding the app, problem size, the full
 * MemoryConfig, and the format versions — so distinct configurations
 * never collide and a format bump silently invalidates old files:
 * they are misses that regenerate, and gc() prunes them. An empty
 * directory keeps the store in memory only.
 *
 * Bundles are written to a temp file and atomically renamed, and
 * every load verifies magic, version, and a whole-payload checksum.
 *
 * Failure handling: corrupt, truncated, or version-mismatched files
 * (util::FormatError) are *quarantined* — renamed to
 * `<name>.corrupt.<ts>` for post-mortem, bounded per name so repeat
 * corruption cannot fill the disk — and reported as a miss (the
 * store regenerates, never trusts). Transient read faults
 * (util::IoError) are rethrown so the campaign's retry policy can
 * re-attempt them. Filesystem errors the store absorbs (failed
 * renames/removes, failed writes) are counted in StoreStats and
 * surfaced through the error-reporting channel.
 */
class TraceStore
{
  public:
    /** Called for every absorbed failure: (site, message). */
    using ErrorHandler =
        std::function<void(const std::string &, const std::string &)>;

    /**
     * @p dir empty keeps the store in memory only (every disk load
     * misses, nothing is written). @p stream_exec is the
     * streaming-residency policy of every bundle the store holds,
     * loaded from disk or generated in memory alike.
     */
    explicit TraceStore(std::string dir,
                        sim::StreamExec stream_exec = sim::StreamExec::Off);

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /**
     * Install the error channel. Set before sharing the store across
     * threads; the handler itself may be called concurrently.
     */
    void setErrorHandler(ErrorHandler handler)
    {
        on_error_ = std::move(handler);
    }

    /** Snapshot of the failure/activity counters. */
    StoreStats stats() const
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        return stats_;
    }

    /** The content-keyed file name a bundle is stored under. */
    static std::string fileName(sim::AppId id,
                                const memsys::MemoryConfig &mem,
                                bool small);

    /** Full path for a key, or "" when disabled. */
    std::string pathFor(sim::AppId id, const memsys::MemoryConfig &mem,
                        bool small) const;

    /**
     * The bundle for (@p id, @p mem, @p small): memoized, else loaded
     * from disk, else generated (and persisted). @p origin and
     * @p timing, when non-null, report where it came from and what
     * that cost.
     *
     * Each key holds the phase-2 shape only, the ViewBundle: a cold
     * key generates straight into the compressed capture
     * (sim::generateView), the bundle file is written from its
     * sections, and sim::applyResidency then keeps it chunked or
     * flattens it. A caller that needs the AoS trace itself (a
     * reference loop) calls sim::generateTrace or loadBundle
     * directly.
     *
     * Thread safe: concurrent calls for distinct keys generate in
     * parallel; concurrent calls for the same key produce once (the
     * losers block until the winner's result lands). Returned
     * references stay valid for the store's lifetime.
     */
    const sim::ViewBundle &getView(sim::AppId id,
                                   const memsys::MemoryConfig &mem = {},
                                   bool small = false,
                                   sim::TraceOrigin *origin = nullptr,
                                   sim::TraceTiming *timing = nullptr);

    /**
     * Drop the trace columns (ViewBundle::view and ::chunked) of a
     * memoized key; its stats stay readable through references
     * getView returned. A later getView reloads the columns (from
     * disk, else by generating) into the same bundle. Columns a
     * caller copied out of the bundle (the shared_ptrs) stay alive
     * until that copy goes: a caller that still reads them after a
     * release must have taken such a copy, since the bundle's own
     * pointers are reset under it.
     */
    void release(sim::AppId id, const memsys::MemoryConfig &mem,
                 bool small);

    /** The bundle on disk for a key; nullopt on a miss or a
     *  quarantined corrupt file. Throws util::IoError on a transient
     *  read fault. */
    std::optional<sim::ViewBundle>
    loadView(sim::AppId id, const memsys::MemoryConfig &mem, bool small);
    /** Persist @p bundle for a key; failures are absorbed. */
    void store(sim::AppId id, const memsys::MemoryConfig &mem,
               bool small, const sim::ViewBundle &bundle);
    void store(sim::AppId id, const memsys::MemoryConfig &mem,
               bool small, const sim::TraceBundle &bundle);

    /**
     * The content-keyed name a sampling plan's live points are stored
     * under: the bundle stem plus every plan parameter (all four enter
     * the window positions or the offset hash) and the live-point
     * format version. Distinct plans never collide, and plain bundle
     * names are untouched — a sampling-off campaign cannot create,
     * read, or invalidate any of these files.
     */
    static std::string livePointFileName(sim::AppId id,
                                         const memsys::MemoryConfig &mem,
                                         bool small,
                                         const sim::SamplingPlan &plan);

    /** Full path for a live-point key, or "" when disabled. */
    std::string livePointPathFor(sim::AppId id,
                                 const memsys::MemoryConfig &mem,
                                 bool small,
                                 const sim::SamplingPlan &plan) const;

    /**
     * The live points of (trace key, @p plan) for the trace @p view:
     * the cached file when it was warmed from this trace content
     * (same length and offset hash — a regenerated trace silently
     * invalidates the cache), else one functional-warming pass over
     * @p view, persisted for the next sweep. Every process sharing
     * the store derives identical points. A corrupt or plan-mismatched
     * file is quarantined and recomputed; throws util::IoError on a
     * transient read fault, like loadView().
     */
    std::shared_ptr<const sim::LivePointSet>
    livePoints(sim::AppId id, const memsys::MemoryConfig &mem,
               bool small, const sim::SamplingPlan &plan,
               const trace::TraceView &view);

    /** Max `*.corrupt.*` siblings kept per bundle name. */
    static constexpr int kMaxQuarantinePerName = 4;

    /**
     * One bounded-garbage pass over the store directory (the
     * --store-gc satellite): prune quarantine corpses past
     * max_corrupt_per_name or max_age_s, orphaned temp files past
     * tmp_age_s, bundles/live-point files of a *stale format version*
     * (their name can never be opened by this build again), and
     * current-format files older than max_age_s. Files named in
     * opts.keep, and anything the store does not recognize, are left
     * alone. Failures are absorbed into the returned stats.
     */
    StoreGcStats gc(const StoreGcOptions &opts);

  private:
    struct Entry {
        std::unique_ptr<sim::ViewBundle> bundle;
        bool busy = false; ///< A thread is producing the bundle.
    };

    using Key = std::tuple<sim::AppId, memsys::MemoryConfig, bool>;

    /**
     * Read @p path through @p load, which starts with the caller's
     * failpoint. A missing file (or "", a disabled store) is a silent
     * miss; a corrupt one (@p load threw anything but util::IoError)
     * is quarantined and a miss too; a transient util::IoError is
     * rethrown.
     */
    void readFile(const std::string &path,
                  const std::function<void(std::istream &)> &load);

    /**
     * Write @p path through @p save as a temp file atomically renamed
     * into place, so concurrent readers (or a crash) never see a
     * partial file. Failures are non-fatal (the store is a cache) but
     * never silent: each is counted and reported under @p site. A
     * "" path (a disabled store) writes nothing.
     */
    void writeFile(const std::string &path, const char *site,
                   const std::function<void(std::ostream &)> &save);

    /** Record + report an absorbed failure. */
    void note(const char *site, const std::string &message,
              uint64_t StoreStats::*counter);
    void bump(uint64_t StoreStats::*counter);

    /** fs::remove with ec surfacing; true when the file is gone. */
    bool removeFile(const std::filesystem::path &path, const char *site);
    /** fs::rename with ec surfacing; true on success. */
    bool renameFile(const std::filesystem::path &from,
                    const std::filesystem::path &to, const char *site);

    /**
     * Move a corrupt file aside as `<name>.corrupt.<ts>` (deleted
     * instead once kMaxQuarantinePerName corpses exist for the name).
     */
    void quarantine(const std::filesystem::path &path);

    const std::string dir_;
    const sim::StreamExec stream_exec_;
    ErrorHandler on_error_;
    mutable std::mutex stats_mu_;
    StoreStats stats_;

    std::map<Key, Entry> memo_;
    std::mutex memo_mu_;
    std::condition_variable memo_cv_;
};

} // namespace dsmem::runner

#endif // DSMEM_RUNNER_TRACE_STORE_H
