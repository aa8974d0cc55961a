#ifndef DSMEM_CORE_TILE_STREAM_H
#define DSMEM_CORE_TILE_STREAM_H

#include "core/trace_source.h"
#include "trace/chunked_view.h"

// ------------------------------------------------------------------
// Internal header: the sequential reader every phase-2 model (the
// sweep executors, BASE, SSBR and SS) pulls its TraceSource through.
// Not part of the public API. The methods live in tile_stream.cc,
// compiled with default flags, so the SIMD executor TU never carries
// its own copy of the decode pipeline.
// ------------------------------------------------------------------

namespace dsmem::core {
class SimContext;
}

namespace dsmem::core::detail {

/**
 * Sequential span producer over a TraceSource: next() hands out the
 * trace in order as trace::TileSpans. A span stays valid until the
 * following next() call.
 *
 * A flat source yields one span over the whole view and decodes
 * nothing. A chunked source yields one span per chunk: next() decodes
 * the chunk on the caller's thread into the one tile borrowed from
 * SimContext::tileScratch(), so a campaign of many chunked cells
 * allocates it once. A file-backed view first fetches the chunk's
 * slices into that tile's scratch, so concurrent groups over one view
 * each read into their own tile. @p cols names the columns the
 * consumer reads: the static sweep asks for TileColumns::kStatic, so
 * its spans carry no address, fu or flags columns. The working set is
 * one L2-resident tile instead of the whole flat trace; decode is a
 * small share of a sweep (see DESIGN.md, "The honest numbers"), so
 * there is no decode-ahead thread to overlap it.
 */
class TileStream
{
  public:
    TileStream(const TraceSource &src, SimContext &ctx,
               trace::TileColumns cols = trace::TileColumns::kAll);

    TileStream(const TileStream &) = delete;
    TileStream &operator=(const TileStream &) = delete;

    /** Set @p span to the next span in trace order; false after the
     *  last. */
    bool next(trace::TileSpan &span);

  private:
    const TraceSource &src_;
    trace::TraceTile &tile_;
    const trace::TileColumns cols_;
    const size_t spans_; ///< Spans the source yields in total.
    size_t handed_ = 0;  ///< Spans handed to the consumer.
};

} // namespace dsmem::core::detail

#endif // DSMEM_CORE_TILE_STREAM_H
