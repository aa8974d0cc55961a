#ifndef DSMEM_CORE_DYNAMIC_PROCESSOR_H
#define DSMEM_CORE_DYNAMIC_PROCESSOR_H

#include <cstdint>
#include <vector>

#include "core/branch_predictor.h"
#include "core/types.h"
#include "stats/histogram.h"
#include "trace/chunked_view.h"
#include "trace/trace.h"
#include "trace/trace_view.h"

namespace dsmem::core {

class SimContext;

namespace detail {
class TileStream;
}

/** Configuration of the dynamically scheduled processor (Section 3.1). */
struct DynamicConfig {
    ConsistencyModel model = ConsistencyModel::RC;

    /** Reorder buffer / lookahead window size (16..256 in the paper). */
    uint32_t window = 64;

    /** Decode+retire width: 1 in Section 4.1, 4 in Section 4.2. */
    uint32_t width = 1;

    /** Figure 4: assume every branch is predicted correctly. */
    bool perfect_branch_prediction = false;

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
     * Time a pre-decoded trace view. This is the production hot loop:
     * SoA operand streams, flat-hash store forwarding bounded by
     * store-buffer liveness, precomputed consistency-gate selectors,
     * and a d-ary heap for the free-window slot pool.
     */
    DynamicResult run(const trace::TraceView &v) const;

    /**
     * run() with recycled storage: borrows lane 0 of @p ctx instead
     * of constructing fresh containers. Results are bit-identical to
     * run(v) regardless of what the context served before (container
     * capacity never affects timing — see SimContext).
     */
    DynamicResult run(const trace::TraceView &v, SimContext &ctx) const;

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

/** Executor strategy for runDynamicSweep. */
enum class SweepMode {
    /**
     * Struct-of-lanes when there are at least two lanes (lockstep
     * amortizes the per-instruction decode over K lanes, so one lane
     * gains nothing) and every config qualifies (solSweepSupported);
     * the per-lane tiled pass otherwise. The SoL batch type is the
     * configure-time SIMD ISA unless the CPU lacks it or it is
     * disabled at runtime (util::simd::forceScalar /
     * DSMEM_SIMD=scalar).
     */
    Auto,
    /** The per-lane tiled pass (always available, any config mix). */
    PerLaneTiled,
    /** Struct-of-lanes lockstep with the configure-time SIMD ISA. */
    SoL,
    /** Struct-of-lanes lockstep forced onto the scalar batch type. */
    SoLScalar,
};

/**
 * True when @p configs can run on the struct-of-lanes fast path:
 * every lane shares the model, width, prediction, and dependence
 * knobs (only the window/store-buffer geometry may differ — exactly
 * the families sim::planPhase2 fuses) and none uses the divergent
 * window ablations (free_window, sc_speculation, finite MSHRs,
 * read-delay collection), whose per-instruction control flow differs
 * across lanes. Unsupported mixes silently take the tiled pass.
 */
bool solSweepSupported(const std::vector<DynamicConfig> &configs);

/** SIMD ISA the struct-of-lanes executor was configured with
 *  ("avx2", "neon", or "scalar"); independent of runtime forcing. */
const char *solIsaName();

/**
 * The ISA SweepMode::Auto/SoL would actually execute with right now:
 * solIsaName() demoted to "scalar" when util::simd::forceScalar()
 * (DSMEM_SIMD=scalar / --simd=scalar) or the CPU lacks the configured
 * instruction set. What bench JSON headers record.
 */
const char *solActiveIsaName();

/** Decode-ahead shape of a chunked TraceSource. */
struct StreamOptions {
    /**
     * 0 = decode tiles inline on the sweep thread (no thread spawned;
     * right on single-core hosts, where the win is the traffic cut
     * alone); 1 = one decode-ahead thread that keeps the tile ring
     * filled while the sweep computes, hiding decode latency behind
     * compute. Values > 1 behave as 1 (decode is sequential by
     * construction: each section is one delta chain).
     */
    int decode_threads = 0;
};

/**
 * The one trace input of the dynamic-scheduling sweeps: the trace as
 * a sequence of trace::TileSpans covering every instruction in order.
 *
 *  - A flat TraceView is a single zero-copy span over its own
 *    columns.
 *  - A ChunkedView stays compressed-resident (~4-8 B/instr) and is
 *    decoded chunk by chunk into an L2-resident tile ring, one span
 *    per tile, optionally by a decode-ahead thread (StreamOptions).
 *    For a trace whose flat view exceeds the LLC this trades the
 *    full-view memory stream for a cache-resident one.
 *
 * Both constructors are implicit, so every sweep entry point takes
 * either view directly. Holds pointers only: the view must outlive
 * the source.
 */
class TraceSource
{
  public:
    TraceSource(const trace::TraceView &v) : flat_(&v) {}
    TraceSource(const trace::ChunkedView &cv, StreamOptions opt = {})
        : chunked_(&cv), opt_(opt)
    {
    }

    /**
     * The whole trace as a flat view, for consumers that need random
     * access or first_use (the static models). A chunked source
     * flattens once; ChunkedView memoizes the result, so the
     * reference lives as long as the ChunkedView.
     */
    const trace::TraceView &flatView() const
    {
        return flat_ != nullptr ? *flat_ : *chunked_->flatten();
    }

  private:
    friend class detail::TileStream;

    const trace::TraceView *flat_ = nullptr;
    const trace::ChunkedView *chunked_ = nullptr;
    StreamOptions opt_;
};

/**
 * Fused window sweep: time every config of @p configs — typically one
 * (model, latency) tuple at several window sizes — in a single pass
 * over the trace, stepping one independent lane per config at each
 * instruction. The k-th result is bit-identical to
 * DynamicProcessor(configs[k]).run(v) on the flat view, whatever the
 * residency of @p src; the win is that the SoA operand arrays stream
 * through the cache once instead of configs.size() times. Lane k
 * borrows ctx.lane(k).
 *
 * @p mode selects the executor. The struct-of-lanes path advances all
 * lanes in lockstep over each instruction with the rolling scalars in
 * parallel arrays (gate/admission/attribution math vectorized, ring
 * and table accesses per-lane), falling back to Lane::step per lane
 * for divergent sync ops; results are bit-identical across every mode
 * (enforced by tests/test_executor.cc).
 */
std::vector<DynamicResult> runDynamicSweep(
    const TraceSource &src, const std::vector<DynamicConfig> &configs,
    SimContext &ctx, SweepMode mode = SweepMode::Auto);

} // namespace dsmem::core

#endif // DSMEM_CORE_DYNAMIC_PROCESSOR_H
