#ifndef DSMEM_CORE_SIM_CONTEXT_H
#define DSMEM_CORE_SIM_CONTEXT_H

#include <cstdint>
#include <deque>
#include <vector>

#include "core/branch_predictor.h"
#include "core/slot_allocator.h"
#include "trace/chunked_view.h"
#include "trace/instruction.h"
#include "trace/op.h"
#include "util/dary_heap.h"
#include "util/flat_map.h"

namespace dsmem::core {

/** Pending-store info for load bypassing/forwarding (DS model). */
struct StoreForward {
    uint64_t data_ready;     ///< When the store's value exists.
    uint64_t mem_completion; ///< When the store performs in memory.
};

/** SS read-buffer entry: a load whose value is still in flight. */
struct PendingLoadSlot {
    trace::InstIndex producer; ///< The load's own trace index.
    uint64_t completion;
};

/**
 * Reusable phase-2 simulation state: every ring, hash table, heap,
 * cycle allocator, and branch-predictor table a DynamicProcessor or
 * StaticProcessor run needs, owned once and recycled across cells.
 *
 * A campaign pushes the same trace through thousands of short timing
 * cells; constructing this state from scratch per cell (vector
 * allocation plus first-touch faults on ~700 KB of allocator rings)
 * costs more than the timing loop itself on small windows. A
 * SimContext instead grows monotonically to the high-water
 * requirement of the cells it has served and is re-initialized in
 * place between cells:
 *
 *  - ring vectors grow to the new cell's length but are never
 *    re-zeroed: every ring slot is written before it is read (see
 *    detail::ensureRing in core/lane.h), so a warm rebind touches no
 *    ring memory at all (DynLane::rebind_bytes_skipped counts the
 *    zero-fill avoided; a test asserts it),
 *  - RingSlotAllocator::reset() clears cells but keeps the span,
 *  - FlatMap::clear() and DaryMinHeap::clear() keep capacity,
 *  - BranchPredictor::reconfigure() reuses the table storage.
 *
 * Timing results never depend on container capacity (see the
 * per-structure contracts), so a reused context is bit-identical to a
 * cold one — tests/test_executor.cc enforces this across
 * differently-sized consecutive cells.
 *
 * Contexts are NOT thread-safe; the Runner pins one per worker
 * thread. Lanes exist so a fused window sweep can time K independent
 * per-window states in one pass over the trace (see
 * core::runDynamicSweep); a single-cell run uses lane 0.
 */
class SimContext
{
  public:
    /** One window-lane's worth of dynamic-processor state. */
    struct DynLane {
        std::vector<uint64_t> completion_ring;
        std::vector<uint64_t> retire_ring;
        std::vector<uint64_t> decode_ring;
        std::vector<uint64_t> sb_leave_ring;
        std::vector<uint64_t> mshr_ring;
        RingSlotAllocator fu[trace::kNumFuClasses];
        util::FlatMap<trace::Addr, StoreForward> last_store{64};
        util::DaryMinHeap<4> slot_heap;
        BranchPredictor predictor{BtbConfig{}};
        /// Zero-fill bytes the grow-only ring rebind avoided writing
        /// compared to the old assign(n, 0) scheme (diagnostics).
        uint64_t rebind_bytes_skipped = 0;
    };

    /** Static-model (SSBR/SS) scratch state: one per sweep row. */
    struct StaticScratch {
        std::vector<uint64_t> write_ring;
        std::vector<uint64_t> read_ring;
        std::vector<PendingLoadSlot> pending_loads;
    };

    /**
     * Struct-of-lanes sweep scratch: one contiguous block the SoL
     * executor partitions into its K-wide parallel arrays (rolling
     * gates, retire chain, attribution counters, per-instruction
     * temporaries — see core/sol_sweep_impl.h). Owned here so a
     * campaign of many small sweeps reuses one allocation.
     */
    struct SolScratch {
        std::vector<uint64_t> buf;
        /**
         * Transposed ring history: completion/retire/decode times of
         * the last R instructions, stored row-major by instruction
         * slot with the K lanes contiguous, so the lockstep phases
         * read and write whole lane batches instead of striding
         * through K per-lane rings (see core/sol_sweep_impl.h).
         */
        std::vector<uint64_t> hist;
        /**
         * The sweep's one store-forwarding table: which store last
         * wrote an address does not depend on the lane, so one index
         * maps each pending address to a row of fwd_rows holding
         * every lane's data_ready, then every lane's mem_completion.
         * fwd_free lists the rows of pruned addresses.
         */
        util::FlatMap<trace::Addr, uint32_t> fwd_index{64};
        std::vector<uint64_t> fwd_rows;
        std::vector<uint32_t> fwd_free;
    };

    /** Lane @p k, created on first use and recycled afterwards. */
    DynLane &lane(size_t k)
    {
        while (lanes_.size() <= k)
            lanes_.emplace_back();
        return lanes_[k];
    }

    /** Row @p k's static-sweep scratch, created on first use. */
    StaticScratch &staticScratch(size_t k)
    {
        while (static_scratch_.size() <= k)
            static_scratch_.emplace_back();
        return static_scratch_[k];
    }

    SolScratch &solScratch() { return sol_scratch_; }

    /**
     * Chunked-source scratch: the decoded SoA tile a TileStream
     * (core/tile_stream.h) decodes each ChunkedView chunk into, and
     * the slice bytes (TraceTile::fetched, ~64 KB) a file-backed view
     * reads the chunk into first. Tile columns grow monotonically
     * (TraceTile vectors are resized, never shrunk), so a campaign of
     * many streamed cells decodes into warm, already-faulted storage
     * after the first.
     */
    trace::TraceTile &tileScratch() { return tile_scratch_; }

  private:
    std::deque<DynLane> lanes_; ///< deque: stable lane addresses.
    std::deque<StaticScratch> static_scratch_; ///< One per sweep row.
    SolScratch sol_scratch_;
    trace::TraceTile tile_scratch_;
};

} // namespace dsmem::core

#endif // DSMEM_CORE_SIM_CONTEXT_H
