#ifndef DSMEM_CORE_TILE_STREAM_H
#define DSMEM_CORE_TILE_STREAM_H

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/dynamic_processor.h"
#include "trace/chunked_view.h"

// ------------------------------------------------------------------
// Internal header: the sequential reader every sweep executor pulls
// its TraceSource through. Not part of the public API. The methods
// live in tile_stream.cc, compiled with default flags, so the SIMD
// executor TU never carries its own copy of the decode pipeline.
// ------------------------------------------------------------------

namespace dsmem::core::detail {

/**
 * Sequential span producer over a TraceSource: next() hands out the
 * trace in order as trace::TileSpans. A span stays valid until the
 * following next() call.
 *
 * A flat source yields one span over the whole view and decodes
 * nothing. A chunked source yields one span per chunk, decoded into a
 * ring of kRingTiles tiles borrowed from SimContext::TileScratch (so a
 * campaign of many chunked cells allocates the ring once), in one of
 * two modes selected by StreamOptions::decode_threads:
 *
 *  - 0 (inline): next() decodes the chunk on the caller's thread.
 *    There is no decode/compute overlap, but the working set is one
 *    L2-resident tile instead of the whole flat trace — on a
 *    memory-bound sweep that traffic cut is the win, and it is the
 *    right default on single-core hosts where a decoder thread would
 *    just time-slice against the sweep.
 *
 *  - 1 (decode-ahead thread): a single producer thread decodes up to
 *    kRingTiles - 1 chunks ahead into the ring while the caller's
 *    sweep computes the current tile, hiding the decode latency
 *    entirely when compute per tile exceeds decode per tile. Classic
 *    bounded single-producer/single-consumer handoff: all indices are
 *    exchanged under one mutex (TSan-clean), and a slot is never
 *    rewritten until the consumer has moved past it.
 *
 * A decode error on the producer thread (impossible for a validated
 * ChunkedView, but kept honest) is captured and rethrown from
 * next().
 */
class TileStream
{
  public:
    /** Tiles in the recycled ring: one being computed, one decoded
     *  ahead, one being written. */
    static constexpr size_t kRingTiles = 3;

    TileStream(const TraceSource &src, SimContext &ctx);
    ~TileStream();

    TileStream(const TileStream &) = delete;
    TileStream &operator=(const TileStream &) = delete;

    /** Set @p span to the next span in trace order; false after the
     *  last. */
    bool next(trace::TileSpan &span);

  private:
    void produce();

    const TraceSource &src_;
    std::vector<trace::TraceTile> &ring_;
    const size_t spans_; ///< Spans the source yields in total.
    const bool threaded_;

    size_t handed_ = 0; ///< Spans handed to the consumer.

    // Threaded-mode shared state, all under mu_.
    std::mutex mu_;
    std::condition_variable cv_tile_; ///< Producer -> consumer.
    std::condition_variable cv_slot_; ///< Consumer -> producer.
    size_t produced_ = 0; ///< Chunks fully decoded into the ring.
    size_t consumed_ = 0; ///< Chunks the consumer has moved past.
    bool stop_ = false;
    std::exception_ptr err_;
    std::thread producer_;
};

} // namespace dsmem::core::detail

#endif // DSMEM_CORE_TILE_STREAM_H
