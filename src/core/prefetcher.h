#ifndef DSMEM_CORE_PREFETCHER_H
#define DSMEM_CORE_PREFETCHER_H

#include <cstdint>

#include "trace/trace.h"
#include "trace/trace_view.h"

namespace dsmem::core {

/**
 * Configuration of the hardware stride prefetcher.
 *
 * Section 6 of the paper discusses Baer and Chen's dynamic prefetch
 * scheme and predicts it "may achieve reasonable gains for
 * applications with regular access behavior (e.g., LU and OCEAN)"
 * but "would probably fail to hide latency for applications that do
 * not have such regular characteristics (e.g., MP3D, PTHOR, LOCUS)".
 * This prefetcher lets us test that prediction.
 *
 * The reference-prediction table is indexed by address region
 * (the trace ISA has no load PCs): each region tracks the last miss
 * address and its stride, and predicts the next miss after
 * `confirmations` consecutive strides repeat — which detects the
 * row/column sweeps of the regular applications and stays quiet on
 * pointer-chasing and hashing access patterns.
 */
struct PrefetchConfig {
    uint32_t table_entries = 64;   ///< Tracked regions (LRU).
    uint32_t region_bytes = 4096;  ///< Region granularity.
    uint32_t confirmations = 2;    ///< Repeats before predicting.
    uint32_t max_stride = 512;     ///< |stride| beyond this: ignore.
};

/** What the prefetcher did to a trace. */
struct PrefetchStats {
    uint64_t read_misses = 0;
    uint64_t covered = 0; ///< Misses converted to (near-)hits.

    double coverage() const
    {
        return read_misses == 0
            ? 0.0
            : static_cast<double>(covered) /
                static_cast<double>(read_misses);
    }
};

/**
 * Apply the prefetcher to a trace: read misses whose address the
 * table predicted are rewritten as prefetched hits (annotated
 * latency 1). Returns the transformed trace; the instruction
 * sequence, dependences, and all other annotations are unchanged.
 * A caller holding only an AoS trace::Trace views it with
 * TraceView::build.
 */
trace::Trace applyStridePrefetcher(const trace::TraceView &v,
                                   const PrefetchConfig &config,
                                   PrefetchStats *stats = nullptr);

} // namespace dsmem::core

#endif // DSMEM_CORE_PREFETCHER_H
