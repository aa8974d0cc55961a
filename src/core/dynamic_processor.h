#ifndef DSMEM_CORE_DYNAMIC_PROCESSOR_H
#define DSMEM_CORE_DYNAMIC_PROCESSOR_H

#include <cstdint>
#include <vector>

#include "core/branch_predictor.h"
#include "core/trace_source.h"
#include "core/types.h"
#include "stats/histogram.h"
#include "trace/trace.h"
#include "trace/trace_view.h"

namespace dsmem::core {

class SimContext;

/** Configuration of the dynamically scheduled processor (Section 3.1). */
struct DynamicConfig {
    ConsistencyModel model = ConsistencyModel::RC;

    /** Reorder buffer / lookahead window size (16..256 in the paper). */
    uint32_t window = 64;

    /** Decode+retire width: 1 in Section 4.1, 4 in Section 4.2. */
    uint32_t width = 1;

    /**
     * Figure 4: ignore register data dependences (operands always
     * ready); dependences arising from consistency constraints are
     * still respected, per the paper's footnote 3.
     */
    bool ignore_data_deps = false;

    /** Store buffer entries; 0 means "window size" (the paper notes
     *  the DS processor's buffer is larger than the static 16). */
    uint32_t store_buffer_depth = 0;

    /**
     * Lockup-free cache MSHR count: maximum outstanding misses. 0
     * means unlimited, the paper's aggressive-memory assumption; 1
     * approximates a blocking cache.
     */
    uint32_t mshrs = 0;

    /**
     * Section-5 ablation: free a window slot when its instruction
     * completes instead of when it retires in order. The paper calls
     * FIFO retirement "a conservative way of using the window".
     */
    bool free_window = false;

    /**
     * The two SC-boosting techniques of the authors' companion paper
     * (discussed in Section 6): speculative execution of read values
     * past consistency constraints (with rollback on a detected
     * violation — never triggered by a fixed-interleaving trace), and
     * non-binding prefetch of delayed stores, so the ordered write
     * performs locally. Only meaningful with model == SC.
     */
    bool sc_speculation = false;

    /** Branch predictor; btb.perfect is Figure 4's perfect prediction. */
    BtbConfig btb;

    /** Collect the decode-to-memory-issue delay of read misses. */
    bool collect_read_delay = false;

    uint32_t storeBufferDepth() const
    {
        return store_buffer_depth == 0 ? window : store_buffer_depth;
    }
};

/** Warm pending-store entry carried in a live point. */
struct WarmStore {
    trace::Addr addr = 0;
    uint64_t data_ready = 0;     ///< When the store's value exists.
    uint64_t mem_completion = 0; ///< When the write performs.

    friend bool operator==(const WarmStore &,
                           const WarmStore &) = default;
};

/**
 * Live-point checkpoint: the warm microarchitectural state at one
 * trace position, captured by the functional fast-forward model
 * (computeLanePoints) and consumed by DynamicProcessor::runSampled.
 *
 * Only state that survives across a reorder window matters here: the
 * branch predictor table (bit-exact — prediction state is a pure
 * function of the (site, taken) history) and the pending-store
 * forwarding entries (approximate — timed on the functional clock).
 * Everything else the detailed lane tracks is O(window) rolling state
 * that the restore seeds uniformly at @ref clock and the detailed
 * warm-up segment re-derives.
 *
 * A live point is valid for every DynamicConfig sharing the BTB table
 * geometry it was warmed with: window size, width, consistency model,
 * and perfect-prediction mode do not enter the warm state (a
 * perfect-prediction lane never consults the predictor at all).
 */
struct LanePoint {
    uint64_t pos = 0;   ///< First instruction after the fast-forward.
    uint64_t clock = 0; ///< Functional-model clock at @ref pos.
    std::vector<WarmStore> stores; ///< Address-sorted pending stores.
    BranchPredictor::Snapshot predictor;

    friend bool operator==(const LanePoint &,
                           const LanePoint &) = default;
};

/**
 * Functional warming pass: advance a retire-at-fetch architectural
 * model over the whole view once (clock += 1 per instruction plus
 * acquire wait cycles, predictor updated on every branch, pending
 * stores tracked with store-buffer-liveness sweeping) and capture a
 * LanePoint at each of @p positions (ascending, each < v.size()).
 * Deterministic: same (view, positions, btb) in, same points out.
 */
std::vector<LanePoint> computeLanePoints(
    const trace::TraceView &v, const std::vector<uint64_t> &positions,
    const BtbConfig &btb);

/** One measured detailed window of a sampled run. */
struct WindowResult {
    uint64_t start = 0; ///< First measured instruction index.
    uint64_t steps = 0; ///< Instructions measured (the W_d length).
    RunResult r; ///< Attribution/counter deltas over the window alone.
};

/** RunResult plus dynamic-scheduling-specific measurements. */
struct DynamicResult : RunResult {
    /**
     * Histogram of cycles between a read miss entering the reorder
     * buffer and its issue to memory (Section 4.1.3's analysis);
     * collected when DynamicConfig::collect_read_delay is set.
     */
    stats::Histogram read_issue_delay{10, 16};

    /** Mean instructions resident in the window per cycle. */
    double avg_window_occupancy = 0.0;
};

/**
 * The dynamically scheduled processor derived from Johnson's design:
 * reorder buffer with register renaming, reservation stations in
 * front of single-cycle functional units, BTB-driven speculative
 * fetch with flush-and-refetch on mispredicts, a lockup-free cache
 * port (one access issued per cycle, unlimited outstanding misses),
 * and a store buffer with load bypassing and forwarding. Memory
 * consistency (SC/PC/RC) is enforced as issue constraints on memory
 * and synchronization operations.
 *
 * Implementation: program-order analytic scheduling. Each trace
 * instruction's decode, issue, completion, and retire cycles are
 * derived from its predecessors (operand completion times, resource
 * free slots, consistency gates, ROB occupancy, fetch stalls), which
 * is exact for greedy oldest-first out-of-order issue with
 * single-cycle units. Memory usage is O(window), so traces of any
 * length can be timed.
 */
class DynamicProcessor
{
  public:
    explicit DynamicProcessor(const DynamicConfig &config);

    /**
     * Time a flat or chunked trace: one lane stepped through the tiled
     * pass, the executor every singleton DS cell and every sweep the
     * struct-of-lanes path cannot take run on. This is the production
     * hot loop: SoA operand streams, flat-hash store forwarding
     * bounded by store-buffer liveness, precomputed consistency-gate
     * selectors, and a d-ary heap for the free-window slot pool.
     */
    DynamicResult run(const TraceSource &src) const;

    /**
     * run() with recycled storage: borrows lane 0 of @p ctx instead
     * of constructing fresh containers. Results are bit-identical to
     * run(src) regardless of what the context served before
     * (container capacity never affects timing — see SimContext).
     */
    DynamicResult run(const TraceSource &src, SimContext &ctx) const;

    /** Convenience: decode @p t into a view, then time it. */
    DynamicResult run(const trace::Trace &t) const;

    /**
     * SMARTS-style sampled run: for each live point, restore a lane
     * to the point's warm state, run @p warmup detailed-but-unmeasured
     * steps, then @p detailed measured steps, and return the measured
     * window's attribution/counter deltas. Windows are independent —
     * each starts from its own live point — so the per-window results
     * do not depend on how many points are passed or in what batches
     * they are processed. Points whose warm-up + detailed segment
     * would run past the end of the trace are skipped.
     */
    std::vector<WindowResult> runSampled(
        const trace::TraceView &v,
        const std::vector<LanePoint> &points, uint64_t warmup,
        uint64_t detailed, SimContext &ctx) const;

    /**
     * The pre-optimization scheduling loop, kept verbatim as the
     * oracle: randomized equivalence tests assert run() is
     * bit-identical to it, and bench_hotloop reports its
     * instructions/second as the pre-PR baseline.
     */
    DynamicResult runReference(const trace::Trace &t) const;

    const DynamicConfig &config() const { return config_; }

  private:
    DynamicConfig config_;
};

/**
 * True when @p configs can run on the struct-of-lanes fast path:
 * every lane shares the width, prediction, and dependence knobs (the
 * consistency model and the window/store-buffer geometry may differ
 * — exactly the families sim::planPhase2 fuses; a model is a per-lane
 * gate mask) and none uses the divergent window ablations
 * (free_window, sc_speculation, finite MSHRs, read-delay collection),
 * whose per-instruction control flow differs across lanes.
 * runDynamicSweep runs unsupported mixes on the tiled pass.
 */
bool solSweepSupported(const std::vector<DynamicConfig> &configs);

/** SIMD ISA the struct-of-lanes executor was configured with
 *  ("avx2", "neon", or "scalar" for a build without the vector SoL),
 *  whatever the running CPU supports. */
const char *solIsaName();

/**
 * The ISA fused sweeps actually run with on this host: solIsaName(),
 * or "scalar" when the build has no vector SoL or the CPU lacks its
 * instruction set, in which case fused groups take the tiled pass.
 * What bench JSON headers record.
 */
const char *solActiveIsaName();

/**
 * Fused sweep: time every config of @p configs — typically one trace's
 * DS cells at several window sizes and consistency models — in a
 * single pass over the trace, stepping one independent lane per
 * config at each instruction. The k-th result is bit-identical to
 * DynamicProcessor(configs[k]).run(v) on the flat view, whatever the
 * residency of @p src; the win is that the SoA operand arrays stream
 * through the cache once instead of configs.size() times. Lane k
 * borrows ctx.lane(k).
 *
 * The host picks the executor. With at least two lanes, a supported
 * mix (solSweepSupported) and a vector ISA the CPU runs
 * (solActiveIsaName() is not "scalar"), the struct-of-lanes path
 * advances all lanes in lockstep over each instruction with the
 * rolling scalars in parallel arrays (gate/admission/attribution math
 * vectorized, each lane's consistency gates selected by its own
 * masks, ring and table accesses per-lane), falling back to
 * Lane::step per lane for divergent sync ops. Otherwise the tiled
 * per-lane pass runs. Results are bit-identical either way (enforced
 * by tests/test_executor.cc).
 */
std::vector<DynamicResult> runDynamicSweep(
    const TraceSource &src, const std::vector<DynamicConfig> &configs,
    SimContext &ctx);

} // namespace dsmem::core

#endif // DSMEM_CORE_DYNAMIC_PROCESSOR_H
