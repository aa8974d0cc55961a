#ifndef DSMEM_SIM_EXECUTOR_H
#define DSMEM_SIM_EXECUTOR_H

#include <cstdint>
#include <vector>

#include "core/dynamic_processor.h"
#include "core/sim_context.h"
#include "core/static_processor.h"
#include "core/types.h"
#include "sim/experiment.h"
#include "sim/trace_bundle.h"
#include "trace/trace_view.h"

namespace dsmem::sim {

/**
 * The phase-2 executor layer: context-recycling cell execution and
 * fused window-sweep batching between the model zoo (experiment.h)
 * and the campaign scheduler (runner::Campaign).
 *
 * A campaign decomposes into *cells* — one (trace, ModelSpec) timing
 * run each. Executing cells independently re-reads the shared
 * TraceView once per cell and rebuilds every ring/table/predictor
 * from scratch. This layer instead:
 *
 *  - recycles a core::SimContext across consecutive cells on the same
 *    worker (allocation-free once warm), and
 *  - fuses DS cells differing only in window size and consistency
 *    model into one core::runDynamicSweep pass over the trace.
 *
 * Results are bit-identical to the naive path in both cases
 * (tests/test_executor.cc enforces it); only wall clock changes.
 */

/**
 * One schedulable phase-2 work item: a single cell, or several DS
 * cells of one unit fused into a window sweep.
 */
struct ExecGroup {
    /** Spec indices into the unit's declaration list, in order. */
    std::vector<size_t> rows;

    /** True: rows time together via core::runDynamicSweep. */
    bool fused = false;

    /**
     * Scheduling weight for longest-first submission (heavier specs
     * first so stragglers don't serialize the tail of the pool).
     * Heuristic, compared only against other groups of the same
     * trace.
     */
    uint64_t cost = 0;
};

/** The DynamicConfig a DS ModelSpec resolves to. */
core::DynamicConfig dynamicConfigFor(const ModelSpec &spec);

/**
 * runModel with recycled storage: identical results to
 * runModel(view, spec), borrowing @p ctx instead of constructing
 * fresh containers. @p src is read in order, so a chunked trace
 * streams its tiles for every model and is never flattened.
 */
core::RunResult runModel(const core::TraceSource &src,
                         const ModelSpec &spec, core::SimContext &ctx);

/**
 * Partition a unit's pending rows (row_done[s] == 0) into execution
 * groups, longest-first.
 *
 * Two DS rows fuse iff core::solSweepSupported accepts their pair of
 * configs (today: same width, prediction and dependence knobs; window
 * size and consistency model may differ), into sweeps of at most
 * @p lane_cap lanes (0 = unlimited); chunking preserves declaration
 * order. Everything else — and DS chunks of one row — becomes a
 * singleton group, executed exactly like the pre-executor
 * path. lane_cap == 1 therefore disables fusion entirely.
 */
std::vector<ExecGroup> planPhase2(const std::vector<ModelSpec> &specs,
                                  const std::vector<uint8_t> &row_done,
                                  size_t lane_cap);

/**
 * Execute one group; results index-match group.rows. @p src is a flat
 * TraceView or a ViewBundle (both convert to a core::TraceSource).
 *
 * A fused group runs as one core::runDynamicSweep; every singleton
 * runs through runModel on @p src (a DS row steps one lane through
 * the tiled pass). Every model reads the trace in order, so a chunked
 * trace streams its tiles and is never flattened. Lane k of @p ctx
 * serves row k, so a worker-pinned context grows to the high-water
 * lane count it has seen and is then allocation-free.
 */
std::vector<core::RunResult> runGroup(const core::TraceSource &src,
                                      const std::vector<ModelSpec> &specs,
                                      const ExecGroup &group,
                                      core::SimContext &ctx);

/**
 * The adaptive lane cap for a campaign with @p pending_ds_rows DS
 * cells still to run on @p jobs workers. One worker: fuse without
 * limit (0) — every pass saved is pure win. Parallel pool: cap
 * groups near pending/(2*jobs) lanes (floor 2) so fusion never
 * starves workers of schedulable groups, rounding a cap of at least
 * util::simd::kBatchWidth down to whole batches so no group pays for
 * a mostly padded batch.
 */
size_t adaptiveLaneCap(size_t pending_ds_rows, unsigned jobs);

} // namespace dsmem::sim

#endif // DSMEM_SIM_EXECUTOR_H
