#ifndef DSMEM_TRACE_TRACE_BUFFER_H
#define DSMEM_TRACE_TRACE_BUFFER_H

#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "trace/chunked_view.h"
#include "trace/trace_stats.h"

namespace dsmem::trace {

/**
 * The phase-1 engine's capture sink: it records the traced processor
 * straight into the compressed, chunk-resident form (ChunkedView) that
 * the trace store writes and a campaign keeps.
 *
 * The generation hot loop appends one 28-byte record per traced
 * instruction into a raw chunk of ChunkedView::kChunkInstrs records
 * (224 KiB, so it stays in L2). When the chunk is full it is sealed:
 * ChunkedView::Encoder appends it to the five v2 sections (~7 B per
 * instruction) and the chunk's storage is reused for the next one.
 * The whole trace therefore never exists uncompressed, and the
 * section bytes are exactly the bytes a bundle file holds.
 *
 * One exception holds chunks back. With the DRAM model on, a store
 * that misses is recorded at issue with a provisional latency and
 * patched when the write completes (appendDeferred, patchLatency). A
 * chunk is sealed only once none of its deferred stores is still
 * unpatched, so a few raw chunks may be open at once; without the
 * DRAM model there is only ever one.
 */
class TraceRecorder
{
  public:
    static constexpr size_t kChunkInstrs = ChunkedView::kChunkInstrs;

    TraceRecorder() = default;
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    void append(const TraceInst &inst)
    {
        if (cur_ == end_) [[unlikely]]
            nextChunk();
        ::new (static_cast<void *>(cur_++)) TraceInst(inst);
    }

    /**
     * Append a record whose latency patchLatency() will set later (a
     * deferred DRAM store). Its chunk stays raw until then.
     */
    void appendDeferred(const TraceInst &inst)
    {
        append(inst);
        ++open_.back().pending;
    }

    /**
     * Rewrite the latency of the deferred record at @p index (its
     * trace/SSA index), appended with appendDeferred(), and seal the
     * chunks that no longer wait on a patch.
     */
    void patchLatency(size_t index, uint32_t latency)
    {
        RawChunk &c = open_[index / kChunkInstrs - first_];
        c.records.get()[index % kChunkInstrs].latency = latency;
        if (--c.pending == 0)
            sealReady(false);
    }

    /**
     * Seal every open chunk and hand over the capture, named
     * @p name. The recorder is spent afterwards. Throws
     * std::logic_error if a deferred record was never patched.
     */
    std::shared_ptr<const ChunkedView> finish(std::string name = {})
    {
        sealReady(true);
        if (!open_.empty())
            throw std::logic_error(
                "trace capture finished with an unpatched deferred "
                "store");
        spare_.clear();
        cur_ = end_ = nullptr;
        return encoder_.finish(std::move(name));
    }

    /** Statistics of the sealed records (all of them after finish). */
    const TraceStats &stats() const { return stats_; }

  private:
    /**
     * Frees a chunk's raw storage. TraceInst is trivially
     * destructible, so its records need no destructor calls.
     */
    struct ChunkFree {
        void operator()(TraceInst *p) const { ::operator delete(p); }
    };
    static_assert(std::is_trivially_destructible_v<TraceInst>);
    using Storage = std::unique_ptr<TraceInst, ChunkFree>;

    struct RawChunk {
        Storage records;
        size_t pending = 0; ///< Deferred records not yet patched.
    };

    /**
     * Seal open chunks from the oldest while none of their deferred
     * records is pending. The newest chunk is sealed only when it is
     * full (@p all: whatever it holds, at finish).
     */
    void sealReady(bool all)
    {
        while (!open_.empty() && open_.front().pending == 0) {
            const bool newest = open_.size() == 1;
            if (newest && !all && cur_ != end_)
                return;
            const TraceInst *records = open_.front().records.get();
            const size_t count = newest
                ? static_cast<size_t>(cur_ - records)
                : kChunkInstrs;
            for (size_t j = 0; j < count; ++j)
                stats_.count(records[j].op, records[j].latency,
                             records[j].taken);
            encoder_.add(records, count);
            spare_.push_back(std::move(open_.front().records));
            open_.erase(open_.begin());
            ++first_;
            if (newest)
                cur_ = end_ = nullptr;
        }
    }

    /**
     * The newest chunk is full: seal what is ready, then continue in
     * a recycled chunk (or, while chunks are held back, a new one).
     * Records are constructed in place by append(), so a new chunk's
     * 224 KiB are written once, not also by TraceInst's member
     * initialisers first.
     */
    void nextChunk()
    {
        sealReady(false);
        Storage storage;
        if (!spare_.empty()) {
            storage = std::move(spare_.back());
            spare_.pop_back();
        } else {
            storage.reset(static_cast<TraceInst *>(
                ::operator new(kChunkInstrs * sizeof(TraceInst))));
        }
        cur_ = storage.get();
        end_ = cur_ + kChunkInstrs;
        open_.push_back(RawChunk{std::move(storage), 0});
    }

    std::vector<RawChunk> open_; ///< Unsealed; front is chunk first_.
    std::vector<Storage> spare_; ///< Sealed chunks' storage, for reuse.
    size_t first_ = 0;
    TraceInst *cur_ = nullptr;
    TraceInst *end_ = nullptr;
    ChunkedView::Encoder encoder_;
    TraceStats stats_;
};

} // namespace dsmem::trace

#endif // DSMEM_TRACE_TRACE_BUFFER_H
