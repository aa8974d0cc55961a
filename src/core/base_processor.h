#ifndef DSMEM_CORE_BASE_PROCESSOR_H
#define DSMEM_CORE_BASE_PROCESSOR_H

#include "core/trace_source.h"
#include "core/types.h"
#include "trace/trace.h"

namespace dsmem::core {

class SimContext;

/**
 * The paper's BASE machine: an in-order processor that completes each
 * operation before initiating the next — no overlap between
 * instructions and memory operations whatsoever (Section 4.1).
 *
 * Its breakdown defines the 100% bar of Figure 3: busy time is one
 * cycle per instruction, each read/write miss contributes its full
 * penalty, acquires contribute their full wait-plus-access time, and
 * releases are counted in write time.
 */
class BaseProcessor
{
  public:
    /**
     * Time a flat or chunked trace, read in order span by span: a
     * one-row runStaticSweep (core/static_processor.h).
     */
    RunResult run(const TraceSource &src) const;

    /** run() borrowing @p ctx's tile for a chunked source. */
    RunResult run(const TraceSource &src, SimContext &ctx) const;

    /** The AoS loop: the oracle the equivalence tests compare with. */
    RunResult run(const trace::Trace &t) const;
};

} // namespace dsmem::core

#endif // DSMEM_CORE_BASE_PROCESSOR_H
