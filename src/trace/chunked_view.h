#ifndef DSMEM_TRACE_CHUNKED_VIEW_H
#define DSMEM_TRACE_CHUNKED_VIEW_H

#include <array>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "trace/trace_view.h"

namespace dsmem::util {
class ByteSource;
}

namespace dsmem::trace {

/**
 * Decoded structure-of-arrays tile of one ChunkedView chunk — what a
 * chunked core::TraceSource hands the executors, one TileSpan per
 * tile. Same columns as TraceView
 * minus first_use (a forward reference no sequential decode can
 * know); sized for L2 residency at ChunkedView::kChunkInstrs.
 * Vectors grow monotonically across decodes, so a recycled tile ring
 * allocates nothing once warm.
 */
struct TraceTile {
    size_t base = 0;  ///< Global index of the tile's first instruction.
    size_t count = 0; ///< Instructions decoded into the tile.
    std::vector<Op> ops;
    std::vector<uint8_t> fu;
    std::vector<uint8_t> flags;
    std::vector<uint8_t> num_srcs;
    std::vector<std::array<InstIndex, 3>> srcs;
    std::vector<Addr> addr;
    std::vector<uint32_t> latency;
    std::vector<uint32_t> aux;
};

namespace detail {

/** Read prefetch into the streaming (non-temporal) hint level. */
inline void
prefetchRead(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0 /* read */, 0 /* streaming */);
#else
    (void)p;
#endif
}

} // namespace detail

/**
 * Read accessor over the SoA columns of instructions [lo(), hi()),
 * indexed by *global* instruction position: the only trace input the
 * dynamic-scheduling executors read (Lane::step and the
 * struct-of-lanes range pass). A flat TraceView is one zero-copy span
 * over [0, n) of its own columns; a decoded ChunkedView tile is one
 * span over its chunk. The scheduling code is therefore the same
 * instantiation for either residency, which is how chunked results
 * stay bit-identical to flat ones by construction.
 *
 * Holds column pointers only: the view or tile must outlive the span.
 */
class TileSpan
{
  public:
    TileSpan() = default;

    explicit TileSpan(const TraceTile &t)
        : base_(t.base), count_(t.count), ops_(t.ops.data()),
          fu_(t.fu.data()), flags_(t.flags.data()),
          num_srcs_(t.num_srcs.data()), srcs_(t.srcs.data()),
          addr_(t.addr.data()), latency_(t.latency.data()),
          aux_(t.aux.data())
    {
    }

    explicit TileSpan(const TraceView &v)
        : count_(v.size()), ops_(v.opsData()), fu_(v.fuData()),
          flags_(v.flagsData()), num_srcs_(v.numSrcsData()),
          srcs_(v.srcsData()), addr_(v.addrData()),
          latency_(v.latencyData()), aux_(v.auxData())
    {
    }

    size_t lo() const { return base_; }
    size_t hi() const { return base_ + count_; }

    Op op(size_t i) const { return ops_[i - base_]; }
    FuClass fu(size_t i) const
    {
        return static_cast<FuClass>(fu_[i - base_]);
    }
    uint8_t flags(size_t i) const { return flags_[i - base_]; }
    bool taken(size_t i) const
    {
        return flags_[i - base_] & TraceView::kTaken;
    }
    uint8_t numSrcs(size_t i) const { return num_srcs_[i - base_]; }
    const InstIndex *srcs(size_t i) const
    {
        return srcs_[i - base_].data();
    }
    Addr addr(size_t i) const { return addr_[i - base_]; }
    uint32_t latency(size_t i) const { return latency_[i - base_]; }
    uint32_t aux(size_t i) const { return aux_[i - base_]; }
    uint32_t branchSite(size_t i) const { return aux_[i - base_]; }
    uint32_t waitCycles(size_t i) const { return aux_[i - base_]; }

    /** One line per operand column at global index @p i. */
    void prefetch(size_t i) const
    {
        const size_t j = i - base_;
        detail::prefetchRead(ops_ + j);
        detail::prefetchRead(flags_ + j);
        detail::prefetchRead(num_srcs_ + j);
        detail::prefetchRead(srcs_ + j);
        detail::prefetchRead(addr_ + j);
        detail::prefetchRead(latency_ + j);
        detail::prefetchRead(aux_ + j);
    }

  private:
    size_t base_ = 0;
    size_t count_ = 0;
    const Op *ops_ = nullptr;
    const uint8_t *fu_ = nullptr;
    const uint8_t *flags_ = nullptr;
    const uint8_t *num_srcs_ = nullptr;
    const std::array<InstIndex, 3> *srcs_ = nullptr;
    const Addr *addr_ = nullptr;
    const uint32_t *latency_ = nullptr;
    const uint32_t *aux_ = nullptr;
};

/**
 * Chunked, compressed-resident trace view: the trace stays in memory
 * as v2-style sections (raw meta bytes; varint-encoded source deltas,
 * zigzag address/latency deltas, and aux values) sliced into chunks
 * of kChunkInstrs instructions, decoded on demand into TraceTile SoA
 * tiles. Resident footprint is ~4-8 bytes per instruction against the
 * flat view's 32 (TraceView::bytesPerInstr()), so a campaign worker
 * holding a multi-GB trace keeps only the compressed form plus an
 * L2-sized tile ring resident — a core::TraceSource over it then
 * overlaps each tile's decode with the previous tile's compute.
 *
 * A per-chunk directory stores each section's byte offset plus the
 * address/latency delta accumulators entering the chunk, so chunks
 * decode independently and in any order. The build path validates SSA
 * form exactly like TraceView(Parts) — the raw meta bytes double as a
 * random-access opcode table for producer checks — so a ChunkedView,
 * like a TraceView, cannot exist malformed.
 *
 * Immutable after construction; decodeChunk is const and touches no
 * shared mutable state, so one ChunkedView may feed many threads.
 * flatten() lazily materializes (and caches) the full TraceView for
 * consumers that need random access or first_use (the SS model,
 * sampled runs).
 */
class ChunkedView
{
  public:
    /**
     * Instructions per chunk. Matches the tiled sweep's block size;
     * one decoded tile is ~28 B/instr * 8192 = 224 KB, so a
     * double/triple-buffered ring stays L2-resident on common parts.
     */
    static constexpr size_t kChunkInstrs = 8192;

    /** Chunk-encode a flat view (the in-memory conversion path). */
    explicit ChunkedView(const TraceView &v);

    /**
     * Decode a v2 trace body (after magic + version) straight into
     * chunk-resident form — the load path that never materializes a
     * flat SoA. @p name and @p n come from the stream prologue the
     * caller already parsed. Throws util::FormatError on malformed
     * input, exactly like the flat loaders.
     */
    ChunkedView(util::ByteSource &src, std::string name, size_t n);

    size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    const std::string &name() const { return name_; }

    size_t chunkCount() const { return dir_.size(); }
    size_t chunkBase(size_t c) const { return c * kChunkInstrs; }
    size_t chunkLength(size_t c) const
    {
        return c + 1 < dir_.size() ? kChunkInstrs
                                   : n_ - c * kChunkInstrs;
    }

    /** Decode chunk @p c into @p tile (recycling its storage). */
    void decodeChunk(size_t c, TraceTile &tile) const;

    /**
     * Bytes the compressed-resident representation occupies (sections
     * plus directory) — what a streamed worker keeps resident in
     * place of size() * TraceView::bytesPerInstr().
     */
    size_t bytesResident() const;

    /**
     * The flat TraceView of the same trace, materialized on first use
     * and cached (thread-safe). Consumers needing random access or
     * the first_use column (SS model, sampled runs) land here; the
     * streaming sweep paths never do.
     */
    std::shared_ptr<const TraceView> flatten() const;

  private:
    /** Per-chunk section offsets + delta accumulator seeds. */
    struct ChunkDir {
        uint64_t srcs_off = 0; ///< Byte offset into srcs_bytes_.
        uint64_t addr_off = 0;
        uint64_t lat_off = 0;
        uint64_t aux_off = 0;
        uint32_t addr_prev = 0; ///< Accumulator entering the chunk.
        uint32_t lat_prev = 0;
    };

    std::string name_;
    size_t n_ = 0;
    std::vector<uint8_t> meta_; ///< n raw v2 meta bytes.
    std::vector<uint8_t> srcs_bytes_;
    std::vector<uint8_t> addr_bytes_;
    std::vector<uint8_t> lat_bytes_;
    std::vector<uint8_t> aux_bytes_;
    std::vector<ChunkDir> dir_;

    mutable std::mutex flat_mu_;
    mutable std::shared_ptr<const TraceView> flat_;
};

} // namespace dsmem::trace

#endif // DSMEM_TRACE_CHUNKED_VIEW_H
