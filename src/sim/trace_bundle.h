#ifndef DSMEM_SIM_TRACE_BUNDLE_H
#define DSMEM_SIM_TRACE_BUNDLE_H

#include <memory>
#include <string_view>

#include "core/trace_source.h"
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
 * TraceBundle's phase-2 shape: the same stats around a shared,
 * chunk-compressed trace (or a flat SoA TraceView) instead of the AoS
 * trace. The timing models read it in order through a
 * core::TraceSource, so neither the capture nor the lean bundle
 * loader ever materializes a Trace.
 *
 * At most one of {view, chunked} is set. Under the default residency
 * (sim/stream_exec.h) `chunked` holds the trace and `view` stays
 * null: every sweep decodes tiles straight out of it, and the rare
 * consumer that needs random access flattens on demand
 * (ChunkedView::flatten is memoized, so the bundle is then chunked
 * plus a memoized flat view). flatView() hides the distinction for
 * such consumers. StreamExec::Off keeps only `view`. Neither is set
 * once the trace store has released the columns
 * (runner::TraceStore::release); the stats stay readable.
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
     * The resident trace as executor input: the chunked form, else
     * the flat view. Implicit, so runGroup takes a bundle directly.
     */
    operator core::TraceSource() const
    {
        if (chunked)
            return core::TraceSource(*chunked);
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

/**
 * Apply the residency policy to a chunked bundle, generated or
 * loaded: keep it chunked unless shouldStream(@p mode) says otherwise
 * (StreamExec::Off), in which case flatten it and drop the compressed
 * form. A flat bundle is left as it is: a flat view is never
 * re-encoded.
 */
void applyResidency(ViewBundle &vb, StreamExec mode);

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

/**
 * generateTrace in the phase-2 shape: the engine records the trace
 * straight into chunk-compressed form (ViewBundle::chunked; view
 * stays null), whose sections are the bundle file's bytes. The stats
 * are counted as the chunks seal; every field equals generateTrace's
 * for the same arguments. applyResidency picks the resident shape.
 */
ViewBundle generateView(AppId id, const memsys::MemoryConfig &mem = {},
                        bool small = false);

/** Where a runner::TraceStore::getView call found its bundle. */
enum class TraceOrigin : uint8_t {
    GENERATED, ///< Ran the multiprocessor simulation (cold).
    DISK,      ///< Loaded from the store's directory.
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

} // namespace dsmem::sim

#endif // DSMEM_SIM_TRACE_BUNDLE_H
