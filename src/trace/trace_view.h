#ifndef DSMEM_TRACE_TRACE_VIEW_H
#define DSMEM_TRACE_TRACE_VIEW_H

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace dsmem::trace {

namespace detail {

/**
 * Per-instruction classification flags (TraceView::k*), derived from
 * the op, the annotated latency, and the branch outcome. One shared
 * definition so the flat view and the chunked tile decoder
 * (ChunkedView) produce bit-identical flag bytes.
 */
uint8_t classifyInst(Op op, uint32_t latency, bool taken);

} // namespace detail

/**
 * Immutable structure-of-arrays decode of a Trace, built once and
 * shared (via shared_ptr) by every timing run that consumes the same
 * trace.
 *
 * A figure/table campaign feeds one annotated trace through the
 * phase-2 simulators once per (model, window, latency, ablation)
 * unit, so anything derivable from the trace alone is hoisted here
 * and paid for exactly once per trace instead of once per run:
 *
 *  - parallel arrays for op / latency / addr / aux / sources, so a
 *    hot loop touching only some fields streams only those bytes;
 *  - per-instruction classification flags (miss, sync, acquire,
 *    release, compute, produces-value, branch outcome) and the
 *    functional-unit class, precomputed from the op and latency.
 *
 * Nothing is derived from later instructions: the columns are exactly
 * a ChunkedView tile's (trace::TraceTile), so every model can read
 * either residency in order through a core::TraceSource.
 *
 * The view holds no reference to the Trace it was built from; it is
 * safe to share across threads (all state is const after build).
 */
class TraceView
{
  public:
    // Classification flag bits (flags(i)).
    static constexpr uint8_t kMiss = 1u << 0;    ///< Memory op, latency > 1.
    static constexpr uint8_t kSync = 1u << 1;    ///< Any synchronization op.
    static constexpr uint8_t kAcquire = 1u << 2; ///< LOCK/WAIT_EVENT/BARRIER.
    static constexpr uint8_t kRelease = 1u << 3; ///< UNLOCK/SET_EVENT/BARRIER.
    static constexpr uint8_t kTaken = 1u << 4;   ///< Branch outcome.
    static constexpr uint8_t kCompute = 1u << 5; ///< Plain ALU/FP op.
    static constexpr uint8_t kMemory = 1u << 6;  ///< LOAD or STORE.
    static constexpr uint8_t kProducesValue = 1u << 7;

    explicit TraceView(const Trace &t);

    /** Build a shareable view (the Campaign's per-bundle decode). */
    static std::shared_ptr<const TraceView> build(const Trace &t)
    {
        return std::make_shared<const TraceView>(t);
    }

    size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }
    const std::string &name() const { return name_; }

    /**
     * Resident bytes one instruction occupies across the SoA columns
     * (ops + fu + flags + num_srcs + srcs + addr + latency + aux),
     * the same 28 B a decoded TraceTile holds. Derived from the
     * element types so cell sizing in benches and the
     * streaming-residency threshold can never drift from the real
     * layout.
     */
    static constexpr double bytesPerInstr()
    {
        return static_cast<double>(
            sizeof(Op) + 3 * sizeof(uint8_t) +
            sizeof(std::array<InstIndex, 3>) + sizeof(Addr) +
            2 * sizeof(uint32_t));
    }

    Op op(size_t i) const { return ops_[i]; }
    FuClass fu(size_t i) const { return static_cast<FuClass>(fu_[i]); }
    uint8_t flags(size_t i) const { return flags_[i]; }

    bool isMiss(size_t i) const { return flags_[i] & kMiss; }
    bool isSync(size_t i) const { return flags_[i] & kSync; }
    bool isAcquire(size_t i) const { return flags_[i] & kAcquire; }
    bool isRelease(size_t i) const { return flags_[i] & kRelease; }
    bool taken(size_t i) const { return flags_[i] & kTaken; }
    bool isCompute(size_t i) const { return flags_[i] & kCompute; }
    bool producesValue(size_t i) const
    {
        return flags_[i] & kProducesValue;
    }

    uint8_t numSrcs(size_t i) const { return num_srcs_[i]; }
    const InstIndex *srcs(size_t i) const { return srcs_[i].data(); }
    Addr addr(size_t i) const { return addr_[i]; }
    uint32_t latency(size_t i) const { return latency_[i]; }
    uint32_t aux(size_t i) const { return aux_[i]; }
    uint32_t branchSite(size_t i) const { return aux_[i]; }
    uint32_t waitCycles(size_t i) const { return aux_[i]; }

    /** Reconstruct the AoS record (exact round-trip of Trace's). */
    TraceInst materialize(size_t i) const;

    /** Every record, as the AoS Trace (the AoS loaders' last step). */
    Trace toTrace() const;

    // Raw column bases: what a trace::TileSpan over the whole view
    // (the executors' zero-copy input) reads.
    const Op *opsData() const { return ops_.data(); }
    const uint8_t *fuData() const { return fu_.data(); }
    const uint8_t *flagsData() const { return flags_.data(); }
    const uint8_t *numSrcsData() const { return num_srcs_.data(); }
    const std::array<InstIndex, 3> *srcsData() const
    {
        return srcs_.data();
    }
    const Addr *addrData() const { return addr_.data(); }
    const uint32_t *latencyData() const { return latency_.data(); }
    const uint32_t *auxData() const { return aux_.data(); }

  private:
    friend class ChunkedView; ///< flatten() decodes into the columns.

    TraceView() = default;

    std::string name_;
    std::vector<Op> ops_;
    std::vector<uint8_t> fu_;
    std::vector<uint8_t> flags_;
    std::vector<uint8_t> num_srcs_;
    std::vector<std::array<InstIndex, 3>> srcs_;
    std::vector<Addr> addr_;
    std::vector<uint32_t> latency_;
    std::vector<uint32_t> aux_;
};

} // namespace dsmem::trace

#endif // DSMEM_TRACE_TRACE_VIEW_H
