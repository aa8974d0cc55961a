#ifndef DSMEM_CORE_RESCHEDULER_H
#define DSMEM_CORE_RESCHEDULER_H

#include <cstdint>

#include "trace/trace.h"
#include "trace/trace_view.h"

namespace dsmem::core {

/**
 * Configuration of the compile-time load scheduler.
 *
 * The paper's concluding remarks propose exactly this study: "it
 * would be interesting to evaluate compiler techniques that exploit
 * relaxed models to schedule reads early. Such compiler rescheduling
 * may allow dynamic processors with small windows or statically
 * scheduled processors with non-blocking reads to effectively hide
 * read latency with simpler hardware." (Section 7.)
 */
struct RescheduleConfig {
    /** Maximum distance (in instructions) a load may be hoisted. */
    uint32_t max_hoist = 32;

    /**
     * Allow hoisting across branches (superblock-style speculative
     * scheduling of non-faulting loads). Off = basic-block scope.
     */
    bool cross_branches = false;

    /**
     * Oracle alias analysis: a load may cross a store to a different
     * address. Off = conservative: loads never cross stores.
     */
    bool exact_alias = false;

    /**
     * Hoist only annotated misses (profile-guided scheduling, as the
     * paper suggests for "scheduling read misses"). Off = every load.
     */
    bool hoist_misses_only = true;

    /**
     * Drag the load's pure-compute address slice along with it (real
     * schedulers move the address computation together with the
     * load); off = the load stops at its immediate producers.
     */
    bool hoist_address_slice = true;
};

/** Statistics of the last pass (returned via the out-parameter form). */
struct RescheduleStats {
    uint64_t loads_considered = 0;
    uint64_t loads_moved = 0;
    uint64_t total_hoist_distance = 0;

    double avgHoist() const
    {
        return loads_moved == 0
            ? 0.0
            : static_cast<double>(total_hoist_distance) /
                static_cast<double>(loads_moved);
    }
};

/**
 * Hoist loads earlier in the trace, subject to data dependences,
 * synchronization fences, and the configured alias/branch scope.
 * The result is a well-formed SSA trace over the same instructions;
 * register source references are remapped to the new positions.
 * @p stats, when non-null, receives what the pass did. A caller
 * holding only an AoS trace::Trace views it with TraceView::build.
 */
trace::Trace rescheduleLoads(const trace::TraceView &v,
                             const RescheduleConfig &config,
                             RescheduleStats *stats = nullptr);

} // namespace dsmem::core

#endif // DSMEM_CORE_RESCHEDULER_H
