#ifndef DSMEM_CORE_TRACE_SOURCE_H
#define DSMEM_CORE_TRACE_SOURCE_H

#include "trace/chunked_view.h"
#include "trace/trace_view.h"

namespace dsmem::core {

namespace detail {
class TileStream;
}

/**
 * The one trace input of every phase-2 model: the trace as a sequence
 * of trace::TileSpans covering every instruction in order, read
 * through detail::TileStream.
 *
 *  - A flat TraceView is a single zero-copy span over its own
 *    columns.
 *  - A ChunkedView stays compressed-resident (~4-8 B/instr) and is
 *    decoded chunk by chunk, inline, into one L2-resident tile, one
 *    span per chunk. For a trace whose flat view exceeds the LLC
 *    this trades the full-view memory stream for a cache-resident
 *    one.
 *
 * Every model (BASE, SSBR, SS, DS) reads the trace strictly in order,
 * so no consumer of a source needs the flat view. Both constructors
 * are implicit, so every entry point takes either view directly.
 * Holds pointers only: the view must outlive the source.
 */
class TraceSource
{
  public:
    TraceSource(const trace::TraceView &v) : flat_(&v) {}
    TraceSource(const trace::ChunkedView &cv) : chunked_(&cv) {}

  private:
    friend class detail::TileStream;

    const trace::TraceView *flat_ = nullptr;
    const trace::ChunkedView *chunked_ = nullptr;
};

} // namespace dsmem::core

#endif // DSMEM_CORE_TRACE_SOURCE_H
