#ifndef DSMEM_TRACE_CHUNKED_VIEW_H
#define DSMEM_TRACE_CHUNKED_VIEW_H

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "trace/trace_view.h"

namespace dsmem::util {
class ByteSink;
class ByteSource;
class ReadFile;
}

namespace dsmem::trace {

/**
 * Decoded structure-of-arrays tile of one ChunkedView chunk — what a
 * chunked core::TraceSource hands the executors, one TileSpan per
 * tile. Same columns as TraceView; sized for L2 residency at
 * ChunkedView::kChunkInstrs.
 * Vectors grow monotonically across decodes, so a recycled tile
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
    /** A file-backed view's fetch reads the chunk's slices here. */
    std::vector<uint8_t> fetched;
};

/**
 * Which TraceTile columns a decode fills. The static models (BASE,
 * SSBR and SS) read only the opcode, the sources, the latency and
 * the aux value, so their tiles skip the address pass and the
 * fu/flags lookups, and a file-backed view does not fetch the
 * address slice for them.
 */
enum class TileColumns : uint8_t {
    kAll,    ///< Every column.
    kStatic, ///< ops, num_srcs, srcs, latency and aux only.
};

/**
 * What the file-backed views of one owner (a runner::TraceStore) read
 * from their files. Shared by every view and updated atomically, so
 * concurrent groups count into it directly.
 */
struct FetchStats {
    std::atomic<uint64_t> fetches{0};         ///< Chunk fetches.
    std::atomic<uint64_t> bytes{0};           ///< Slice bytes read.
    std::atomic<uint64_t> verify_failures{0}; ///< Slices refused.
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
 * Chunked, compressed trace view: the trace is kept as its v2
 * sections (raw meta bytes; varint-encoded source deltas, zigzag
 * address/latency deltas, and aux values) sliced into chunks of
 * kChunkInstrs instructions, decoded on demand into TraceTile SoA
 * tiles. A core::TraceSource over it decodes each chunk just before
 * the sweep reads it, so a sweep holds one L2-sized tile.
 *
 * The sections live in one of two places:
 *  - in memory, back to back in one buffer (~4-8 bytes per
 *    instruction against the flat view's 28,
 *    TraceView::bytesPerInstr()): the phase-1 capture, a stream load,
 *    a memory-only store;
 *  - in their file (file-backed): a store load or an adopted
 *    capture. The view holds the open file, each section's file
 *    offset, and one hash per (chunk, section) slice. A decode first
 *    reads chunk c's slices with pread into the caller's tile
 *    (TraceTile::fetched), re-hashes each against the hash taken when
 *    the view was built, and refuses a mismatch with
 *    util::FormatError naming the trace and chunk. Only the directory
 *    and the hashes stay in memory.
 * Either way the same decoder runs over the slice bytes.
 *
 * A per-chunk directory stores each section's byte offset plus the
 * address/latency delta accumulators entering the chunk, so chunks
 * decode independently and in any order. Every build path validates
 * the same things: the lean load (the byte constructor, which keeps
 * the bytes it is given where they are), the bounded-memory load
 * (the ByteSource constructor, one pass over the file in fixed
 * blocks) and the Encoder the phase-1 capture uses all check the
 * opcode range and SSA form (the raw meta bytes double as a
 * random-access opcode table for producer checks), and every varint
 * is a canonical LEB128 encoding of at most five bytes that fits 32
 * bits. So a ChunkedView cannot exist malformed; a file-backed one
 * re-checks only that its file still holds the bytes it validated.
 *
 * Immutable after construction; decodeChunk is const and touches no
 * shared mutable state (positional reads share no file offset), so
 * one ChunkedView may feed many threads.
 * flatten() lazily materializes (and caches) the full TraceView for
 * consumers that need random access (sampled runs, live-point
 * warming, the trace transforms); every phase-2 model reads a
 * core::TraceSource in order and never flattens.
 */
class ChunkedView
{
    /** The v2 sections, in file order; kSections counts them. */
    enum Section : size_t { kMeta, kSrcs, kAddr, kLat, kAux, kSections };

  public:
    /**
     * Instructions per chunk. Matches the tiled sweep's block size;
     * one decoded tile is ~28 B/instr * 8192 = 224 KB, so it stays
     * L2-resident on common parts.
     */
    static constexpr size_t kChunkInstrs = 8192;

    /**
     * Chunk a flat view (the in-memory conversion path and the
     * reference the capture Encoder is tested against): encode it
     * with saveTrace and load those bytes through the lean loader
     * below, so the resident sections are the file's bytes, validated
     * as a disk load validates them.
     */
    explicit ChunkedView(const TraceView &v);

    /**
     * The lean load: adopt @p bytes, which hold one DSMT v2 trace
     * stream (magic, version, name, count, then the five sections)
     * from offset @p at to their end. One validating pass checks the
     * opcodes, the SSA form and every varint, and records the chunk
     * directory; the section bytes stay where they were read, never
     * decoded and re-encoded. Throws util::FormatError on malformed
     * input (util::TruncatedError when a section ends early), including
     * any bytes past the aux section.
     */
    ChunkedView(std::vector<uint8_t> bytes, size_t at);

    /**
     * The bounded-memory load (trace::loadTraceChunked over a file):
     * read the DSMT v2 stream at @p in's cursor — a ByteSource over
     * @p file, so its offsets are the file's — in one pass through
     * its block buffer, with the lean load's validation, hashing
     * every (chunk, section) slice. The result is file-backed; only
     * the meta section is held during the pass. @p in is left after
     * the aux section. @p stats (may be null) counts the fetches.
     */
    ChunkedView(util::ByteSource &in,
                std::shared_ptr<const util::ReadFile> file,
                std::shared_ptr<FetchStats> stats);

    /**
     * A file-backed twin of this in-memory view, whose body (the five
     * sections) @p file holds at offset @p body_at — a bundle just
     * written from it. The slice hashes come from this view's own
     * sections, so nothing is re-read.
     */
    std::shared_ptr<const ChunkedView>
    inFile(std::shared_ptr<const util::ReadFile> file, uint64_t body_at,
           std::shared_ptr<FetchStats> stats) const;

    /**
     * Builds a ChunkedView one chunk of AoS records at a time — the
     * phase-1 capture's encoder (trace::TraceRecorder). Each add()
     * appends the chunk's records to the five v2 sections and its
     * directory entry; the address and latency accumulators run
     * across chunks, so the sections are exactly the bytes saveTrace
     * writes for the same trace, and a finished Encoder equals
     * ChunkedView(TraceView) of it.
     */
    class Encoder
    {
      public:
        Encoder();
        Encoder(const Encoder &) = delete;
        Encoder &operator=(const Encoder &) = delete;

        /**
         * Encode the next chunk: the @p count records that follow the
         * ones already added. Every chunk but the last must hold
         * kChunkInstrs records. Throws util::FormatError on a bad
         * opcode, source count or SSA reference, like the loaders.
         */
        void add(const TraceInst *records, size_t count);

        /**
         * The finished view: the sections joined into its one
         * buffer. The Encoder is spent.
         */
        std::shared_ptr<const ChunkedView> finish(std::string name);

      private:
        std::shared_ptr<ChunkedView> view_;
        std::vector<uint8_t> sections_[kSections];
        uint32_t addr_prev_ = 0; ///< Accumulators entering the next chunk.
        uint32_t lat_prev_ = 0;
    };

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

    /**
     * Decode chunk @p c's @p cols into @p tile (recycling its
     * storage); a file-backed view fetches and verifies the slices
     * @p cols needs first (throws util::FormatError on a mismatch,
     * util::IoError on a read fault).
     */
    void decodeChunk(size_t c, TraceTile &tile,
                     TileColumns cols = TileColumns::kAll) const;

    /** True when the sections stay in the view's file. */
    bool fileBacked() const { return file_ != nullptr; }

    /** The five sections' bytes: the v2 body. */
    size_t bodyBytes() const
    {
        return static_cast<size_t>(sec_[kSections] - sec_[kMeta]);
    }

    /** Slice bytes one pass over every chunk's @p cols reads. */
    size_t passBytes(TileColumns cols) const;

    /**
     * Bytes the trace occupies in this process: the compressed
     * sections (in memory only) plus the directory and slice hashes —
     * what a streamed worker keeps in place of size() *
     * TraceView::bytesPerInstr() — plus the flat copy once flatten()
     * has materialized it.
     */
    size_t bytesResident() const;

    /**
     * The flat TraceView of the same trace, materialized on first use
     * and cached (thread-safe). Consumers needing random access
     * (sampled runs, live-point warming) land here; the phase-2
     * models never do.
     */
    std::shared_ptr<const TraceView> flatten() const;

    /** True once flatten() has materialized the flat view. */
    bool flattened() const;

    /** Same name, sections and chunk directory (not the flat cache). */
    friend bool operator==(const ChunkedView &a, const ChunkedView &b);

    friend void saveTrace(const ChunkedView &cv, util::ByteSink &sink);

  private:
    /** Per-chunk section offsets + delta accumulator seeds. */
    struct ChunkDir {
        uint64_t srcs_off = 0; ///< Byte offset into the srcs section.
        uint64_t addr_off = 0;
        uint64_t lat_off = 0;
        uint64_t aux_off = 0;
        uint32_t addr_prev = 0; ///< Accumulator entering the chunk.
        uint32_t lat_prev = 0;

        friend bool operator==(const ChunkDir &,
                               const ChunkDir &) = default;
    };

    /** Writable column bases a chunk decodes into (tile or flat). */
    struct Columns {
        Op *ops;
        uint8_t *fu;
        uint8_t *flags;
        uint8_t *num_srcs;
        std::array<InstIndex, 3> *srcs;
        Addr *addr;
        uint32_t *latency;
        uint32_t *aux;
    };

    ChunkedView() = default; ///< Empty; the Encoder fills it.

    /** Whether a decode of @p cols reads section @p s. */
    static bool reads(TileColumns cols, Section s)
    {
        return cols == TileColumns::kAll || s != kAddr;
    }

    /** Chunk c's first byte of each section, as the decoder reads. */
    struct Slices {
        const uint8_t *at[kSections];
    };

    /**
     * The one validating pass over a v2 stream at @p in's cursor:
     * prologue, then the five sections, filling the directory, the
     * section offsets (@p in's) and, for a file-backed view, the
     * slice hashes.
     */
    void scan(util::ByteSource &in);

    /** Offset of chunk @p c's slice within section @p s (c may be
     *  chunkCount(): the section's length). */
    uint64_t sliceOff(size_t c, Section s) const;

    uint64_t sliceLen(size_t c, Section s) const
    {
        return sliceOff(c + 1, s) - sliceOff(c, s);
    }

    /**
     * Read chunk @p c's slice of section @p s from the file into
     * @p dst and check it against its hash: util::FormatError naming
     * the trace and chunk on a mismatch. File-backed views only.
     */
    void readSlice(size_t c, Section s, uint8_t *dst) const;

    /**
     * Chunk @p c's slices of @p cols: in place for an in-memory view;
     * read into @p scratch and verified for a file-backed one (the
     * "trace_io.fetch" failpoint site).
     */
    Slices fetch(size_t c, TileColumns cols,
                 std::vector<uint8_t> &scratch) const;

    /** Decode chunk @p c from @p in into @p out's first
     *  chunkLength(c) slots. */
    void decodeInto(size_t c, const Slices &in, const Columns &out,
                    TileColumns cols) const;

    std::string name_;
    size_t n_ = 0;
    /**
     * An in-memory view's sections, at [sec_[kMeta], sec_[kSections]).
     * A loaded view keeps the buffer it was read into, whose bytes
     * before the meta section (a bundle's header and stats) are not
     * the trace's and are not counted as resident. Empty when
     * file-backed.
     */
    std::vector<uint8_t> bytes_;
    /** Section starts, then the end: offsets into bytes_, or into
     *  file_ when file-backed. */
    uint64_t sec_[kSections + 1] = {};
    std::vector<ChunkDir> dir_;

    /** File-backed only: the bundle, and one word-FNV hash per
     *  (chunk, section) slice at [c * kSections + s]. */
    std::shared_ptr<const util::ReadFile> file_;
    std::vector<uint64_t> hashes_;
    std::shared_ptr<FetchStats> stats_;

    mutable std::mutex flat_mu_;
    mutable std::shared_ptr<const TraceView> flat_;
};

} // namespace dsmem::trace

#endif // DSMEM_TRACE_CHUNKED_VIEW_H
