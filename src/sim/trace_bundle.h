#ifndef DSMEM_SIM_TRACE_BUNDLE_H
#define DSMEM_SIM_TRACE_BUNDLE_H

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <tuple>

#include "memsys/memory_system.h"
#include "mp/thread_context.h"
#include "sim/app_registry.h"
#include "sim/stream_exec.h"
#include "trace/chunked_view.h"
#include "trace/trace.h"
#include "trace/trace_stats.h"
#include "trace/trace_view.h"

namespace dsmem::sim {

/**
 * Everything the multiprocessor simulation phase produces for one
 * application: the traced processor's annotated trace plus the
 * statistics the paper's Tables 1 and 2 report.
 */
struct TraceBundle {
    trace::Trace trace;
    trace::TraceStats stats;       ///< From the traced processor.
    memsys::CacheStats cache0;     ///< Traced processor's cache.
    mp::ThreadStats thread0;       ///< Traced processor's counters.
    uint64_t mp_cycles = 0;        ///< Traced processor's final clock.
    bool verified = false;         ///< Application self-check result.

    /**
     * Whole-run per-bank DRAM summary. Empty unless the generating
     * MemoryConfig had dram.banks > 0 — the empty case serializes in
     * the seed's v2 container, byte for byte.
     */
    memsys::DramSummary dram;
};

/**
 * TraceBundle's phase-2 shape: the same stats around a shared SoA
 * TraceView instead of the AoS trace. The timing models and the
 * Campaign only ever read the view, so the direct-to-view bundle
 * loader can fill this without materializing a Trace at all.
 *
 * Exactly one of {view, chunked} is set. When the streaming-executor
 * policy (sim/stream_exec.h) keeps a big trace chunk-compressed,
 * `chunked` holds the resident form and `view` stays null: dynamic
 * sweeps stream tiles straight out of it, and the rare consumer that
 * needs random access flattens on demand (ChunkedView::flatten is
 * memoized). flatView() hides the distinction for such consumers.
 */
struct ViewBundle {
    std::shared_ptr<const trace::TraceView> view;
    std::shared_ptr<const trace::ChunkedView> chunked;
    trace::TraceStats stats;
    memsys::CacheStats cache0;
    mp::ThreadStats thread0;
    uint64_t mp_cycles = 0;
    bool verified = false;
    memsys::DramSummary dram; ///< Empty when the DRAM model was off.

    /** The flat view, flattening the chunked form on first demand. */
    std::shared_ptr<const trace::TraceView> flatView() const
    {
        if (view)
            return view;
        return chunked ? chunked->flatten() : nullptr;
    }

    /**
     * The resident trace as executor input: the chunked form with
     * this host's decode-ahead shape (streamOptions()), else the flat
     * view. Implicit, so runGroup takes a bundle directly.
     */
    operator core::TraceSource() const
    {
        if (chunked)
            return core::TraceSource(*chunked, streamOptions());
        return core::TraceSource(*view);
    }

    /** Bytes the resident trace form occupies (flat or compressed). */
    size_t traceBytesResident() const
    {
        if (chunked)
            return chunked->bytesResident();
        return view ? static_cast<size_t>(
                          static_cast<double>(view->size()) *
                          trace::TraceView::bytesPerInstr())
                    : 0;
    }
};

/** Build the view-shaped twin of @p bundle (shares nothing with it). */
ViewBundle makeViewBundle(const TraceBundle &bundle);

/**
 * makeViewBundle honoring the streaming-residency policy: when
 * shouldStream(@p mode) says the flat view would spill the LLC (or
 * streaming is forced on), the result carries the chunk-compressed
 * form instead of the flat SoA — the same decision loadBundleView
 * makes on the disk path, applied to in-memory generation so
 * storeless runs (RunnerOptions::stream_exec) stream too.
 */
ViewBundle makeViewBundle(const TraceBundle &bundle, StreamExec mode);

/**
 * Run the 16-processor multiprocessor simulation for @p id and
 * capture processor 0's trace (Section 3.2's methodology). The
 * consistency model of this phase is always release consistency with
 * in-order blocking-read processors; @p mem sets the miss penalty the
 * annotations carry (50 cycles in the main experiments, 100 in
 * Section 4.2).
 */
TraceBundle generateTrace(AppId id,
                          const memsys::MemoryConfig &mem = {},
                          bool small = false);

/** Where a TraceCache::get call found its bundle. */
enum class TraceOrigin : uint8_t {
    GENERATED, ///< Ran the multiprocessor simulation (cold).
    DISK,      ///< Loaded from a persistent TraceStore.
    MEMORY,    ///< Already memoized in this process.
};

std::string_view traceOriginName(TraceOrigin origin);

/**
 * Where a bundle's wall-clock went, for the result sink: generating
 * it (the phase-1 simulation) and/or loading it from disk. Both zero
 * when the bundle was already memoized in this process.
 */
struct TraceTiming {
    double gen_ms = 0.0;
    double load_ms = 0.0;
};

/**
 * Interface to a persistent bundle store layered under TraceCache
 * (implemented by runner::TraceStore). A load that fails for any
 * reason returns nullopt; the caller regenerates and re-stores.
 */
class TraceStoreBase
{
  public:
    virtual ~TraceStoreBase() = default;
    virtual std::optional<TraceBundle> load(AppId id,
                                            const memsys::MemoryConfig &mem,
                                            bool small) = 0;
    virtual void store(AppId id, const memsys::MemoryConfig &mem,
                       bool small, const TraceBundle &bundle) = 0;

    /**
     * Load straight into a ViewBundle for phase-2-only consumers.
     * The default decodes the AoS bundle and views it; stores with a
     * direct-to-view path (runner::TraceStore on v2 files) override
     * this to skip the intermediate Trace.
     */
    virtual std::optional<ViewBundle> loadView(AppId id,
                                               const memsys::MemoryConfig &mem,
                                               bool small);
};

/**
 * Memoizes generateTrace per (app, full MemoryConfig, small) so a
 * bench binary re-times one trace under many processor models without
 * re-running the multiprocessor phase. Optionally layered over a
 * persistent TraceStoreBase that survives the process.
 *
 * Each key caches the AoS bundle (get) and the SoA view bundle
 * (getView) independently — a campaign that only ever asks for views
 * never materializes the AoS trace, while legacy consumers keep the
 * exact bundle they always had. When one shape is already resident
 * the other is derived from it in memory rather than re-loaded.
 *
 * Thread safe: concurrent calls for distinct keys generate in
 * parallel; concurrent calls for the same key produce once (the
 * losers block until the winner's result lands). Returned references
 * stay valid for the cache's lifetime.
 */
class TraceCache
{
  public:
    TraceCache() = default;
    explicit TraceCache(TraceStoreBase *store) : store_(store) {}

    /** Set (or clear) the persistent layer; not thread safe. */
    void setStore(TraceStoreBase *store) { store_ = store; }

    /**
     * Residency policy for bundles derived in memory (the store
     * applies its own copy to disk loads); not thread safe. Off by
     * default so non-campaign users keep the flat view.
     */
    void setStreamExec(StreamExec mode) { stream_exec_ = mode; }

    const TraceBundle &get(AppId id,
                           const memsys::MemoryConfig &mem = {},
                           bool small = false,
                           TraceOrigin *origin = nullptr,
                           TraceTiming *timing = nullptr);

    /**
     * The phase-2 entry point: the same memoization keyed on the same
     * tuple, but yielding the SoA view bundle. Prefers the store's
     * direct-to-view load; generates (and persists) when cold.
     */
    const ViewBundle &getView(AppId id,
                              const memsys::MemoryConfig &mem = {},
                              bool small = false,
                              TraceOrigin *origin = nullptr,
                              TraceTiming *timing = nullptr);

  private:
    struct Entry {
        std::unique_ptr<TraceBundle> bundle;
        std::unique_ptr<ViewBundle> vbundle;
        bool busy = false; ///< A thread is filling one of the shapes.
    };

    using Key = std::tuple<AppId, memsys::MemoryConfig, bool>;

    std::map<Key, Entry> cache_;
    std::mutex mu_;
    std::condition_variable cv_;
    TraceStoreBase *store_ = nullptr;
    StreamExec stream_exec_ = StreamExec::Off;
};

} // namespace dsmem::sim

#endif // DSMEM_SIM_TRACE_BUNDLE_H
