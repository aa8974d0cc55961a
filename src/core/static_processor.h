#ifndef DSMEM_CORE_STATIC_PROCESSOR_H
#define DSMEM_CORE_STATIC_PROCESSOR_H

#include <cstdint>
#include <vector>

#include "core/trace_source.h"
#include "core/types.h"
#include "trace/trace.h"

namespace dsmem::core {

class SimContext;

/** Configuration of the statically scheduled processor models. */
struct StaticConfig {
    ConsistencyModel model = ConsistencyModel::RC;

    /**
     * false: SSBR — blocking reads (the processor stalls for every
     * read's return value).
     * true: SS — non-blocking reads with a read buffer; the stall is
     * delayed to the first use of the return value (Section 4.1.1).
     */
    bool nonblocking_reads = false;

    /** The paper assumes a 16-word-deep write buffer. */
    uint32_t write_buffer_depth = 16;

    /** SS only: 16-word-deep read (pending-load) buffer. */
    uint32_t read_buffer_depth = 16;
};

/**
 * The statically scheduled in-order processor models SSBR and SS.
 *
 * Instructions execute in order, one per cycle. Stores retire through
 * a write buffer whose issue discipline enforces the consistency
 * model: under SC a write issues only after all previous accesses
 * performed (and reads wait for pending writes); under PC writes
 * issue serially but reads bypass them; under RC writes issue
 * pipelined (one per cycle) and only releases wait for previous
 * accesses. Acquire operations always block the processor, since the
 * value gates control flow.
 */
class StaticProcessor
{
  public:
    explicit StaticProcessor(const StaticConfig &config);

    /**
     * Time a flat or chunked trace, read in order span by span, so a
     * chunked trace is never flattened: a one-row runStaticSweep.
     * Production loop: O(1) ring buffers for the write/read FIFO
     * occupancy checks, the SS stall checked where a consumer reads a
     * pending load's value (its own sources against the pending
     * list), and hoisted consistency-gate selectors.
     */
    RunResult run(const TraceSource &src) const;

    /**
     * run() with recycled storage: borrows the static and tile scratch
     * of @p ctx instead of constructing fresh buffers. Bit-identical
     * to run(src) regardless of prior context use.
     */
    RunResult run(const TraceSource &src, SimContext &ctx) const;

    /** Convenience: decode @p t into a view, then time it. */
    RunResult run(const trace::Trace &t) const;

    /**
     * The pre-optimization loop, kept verbatim as the oracle for the
     * randomized equivalence tests and bench_hotloop's baseline.
     */
    RunResult runReference(const trace::Trace &t) const;

    const StaticConfig &config() const { return config_; }

  private:
    StaticConfig config_;
};

/** One row of a static sweep: the BASE machine, or SSBR/SS. */
struct StaticSweepRow {
    bool base = false;   ///< BASE (BaseProcessor); config is unused.
    StaticConfig config; ///< SSBR/SS (StaticProcessor).
};

/**
 * Fused static sweep: time every row of @p rows — typically one
 * trace's BASE, SSBR and SS cells — in one pass over the trace. Each
 * span the source yields is stepped through every row in turn, so a
 * chunked trace decodes each chunk once for all rows instead of once
 * per row, and a flat one is read while cache-hot. Rows share
 * nothing: the k-th result is bit-identical to row k's own run(src),
 * which is itself a one-row sweep. Row k borrows
 * ctx.staticScratch(k). Throws std::invalid_argument on a zero buffer
 * depth, like StaticProcessor's constructor.
 */
std::vector<RunResult> runStaticSweep(
    const TraceSource &src, const std::vector<StaticSweepRow> &rows,
    SimContext &ctx);

} // namespace dsmem::core

#endif // DSMEM_CORE_STATIC_PROCESSOR_H
