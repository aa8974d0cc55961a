#ifndef DSMEM_TRACE_TRACE_BUFFER_H
#define DSMEM_TRACE_TRACE_BUFFER_H

#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "trace/trace.h"
#include "trace/trace_view.h"

namespace dsmem::trace {

/**
 * Append-only chunked buffer of trace records — the phase-1 engine's
 * capture sink.
 *
 * The generation hot loop appends one record per traced instruction;
 * growing a flat std::vector there means periodic reallocate-and-copy
 * spikes of the entire trace (tens of MB for the full-size apps) and
 * a doubling growth curve whose peak holds two copies live. Fixed
 * 64 Ki-record chunks make every append O(1) with no copying, keep
 * the grow step off the fast path, and bound transient memory to one
 * chunk. At the end of the run the records drain, chunk by chunk,
 * into either shape: the SoA columns of a TraceView (the store's
 * generate path) or a contiguous AoS Trace.
 */
class TraceRecorder
{
  public:
    static constexpr size_t kChunkInsts = size_t{1} << 16;

    TraceRecorder() = default;
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    void append(const TraceInst &inst)
    {
        if (cur_ == end_)
            grow();
        ::new (static_cast<void *>(cur_++)) TraceInst(inst);
    }

    size_t size() const
    {
        if (chunks_.empty())
            return 0;
        return (chunks_.size() - 1) * kChunkInsts +
            (kChunkInsts - static_cast<size_t>(end_ - cur_));
    }

    /**
     * Rewrite the latency annotation of the already-appended record
     * at @p index (its trace/SSA index). The DRAM model's deferred
     * stores use this: the record is appended at issue with a
     * provisional latency and patched when the write actually
     * completes at the memory. Only valid before drainInto.
     */
    void patchLatency(size_t index, uint32_t latency)
    {
        chunks_[index / kChunkInsts].get()[index % kChunkInsts].latency =
            latency;
    }

    /**
     * Move every buffered record into the (empty) SoA columns of
     * @p parts and release the chunks as they empty. The columns reserve their
     * exact size once but grow chunk by chunk, so only the pages a
     * drained chunk fills are touched: the two copies never coexist
     * whole.
     */
    void drainInto(TraceView::Parts &parts)
    {
        const size_t n = size();
        parts.ops.reserve(n);
        parts.num_srcs.reserve(n);
        parts.taken.reserve(n);
        parts.srcs.reserve(n);
        parts.addr.reserve(n);
        parts.latency.reserve(n);
        parts.aux.reserve(n);
        drain([&](const TraceInst *p, size_t count, size_t base) {
            parts.ops.resize(base + count);
            parts.num_srcs.resize(base + count);
            parts.taken.resize(base + count);
            parts.srcs.resize(base + count);
            parts.addr.resize(base + count);
            parts.latency.resize(base + count);
            parts.aux.resize(base + count);
            for (size_t i = 0; i < count; ++i) {
                const TraceInst &inst = p[i];
                parts.ops[base + i] = inst.op;
                parts.num_srcs[base + i] = inst.num_srcs;
                parts.taken[base + i] = inst.taken ? 1 : 0;
                parts.srcs[base + i] = {inst.src[0], inst.src[1],
                                        inst.src[2]};
                parts.addr[base + i] = inst.addr;
                parts.latency[base + i] = inst.latency;
                parts.aux[base + i] = inst.aux;
            }
        });
    }

    /**
     * Append every buffered record to @p t (one exact-size reserve,
     * no intermediate copies) and release the chunks.
     */
    void drainInto(Trace &t)
    {
        t.reserve(t.size() + size());
        drain([&](const TraceInst *p, size_t count, size_t) {
            for (size_t i = 0; i < count; ++i)
                t.append(p[i]);
        });
    }

  private:
    /**
     * Hand each chunk's records to @p visit(records, count, index of
     * the first), then free the chunk: a drain streams, never holding
     * both the chunks and their destination whole.
     */
    template <typename Visit>
    void drain(Visit &&visit)
    {
        const size_t n_chunks = chunks_.size();
        for (size_t c = 0; c < n_chunks; ++c) {
            const size_t count = (c + 1 == n_chunks)
                ? kChunkInsts - static_cast<size_t>(end_ - cur_)
                : kChunkInsts;
            visit(chunks_[c].get(), count, c * kChunkInsts);
            chunks_[c].reset();
        }
        chunks_.clear();
        cur_ = end_ = nullptr;
    }

    /**
     * Frees a chunk's raw storage. TraceInst is trivially
     * destructible, so its records need no destructor calls.
     */
    struct ChunkFree {
        void operator()(TraceInst *p) const { ::operator delete(p); }
    };
    static_assert(std::is_trivially_destructible_v<TraceInst>);

    /**
     * Add an uninitialised chunk: append() constructs each record in
     * place, so the 2 MiB are written once, not also by TraceInst's
     * member initialisers first.
     */
    void grow()
    {
        chunks_.emplace_back(static_cast<TraceInst *>(
            ::operator new(kChunkInsts * sizeof(TraceInst))));
        cur_ = chunks_.back().get();
        end_ = cur_ + kChunkInsts;
    }

    std::vector<std::unique_ptr<TraceInst, ChunkFree>> chunks_;
    TraceInst *cur_ = nullptr;
    TraceInst *end_ = nullptr;
};

} // namespace dsmem::trace

#endif // DSMEM_TRACE_TRACE_BUFFER_H
