#include "trace/trace_view.h"

namespace dsmem::trace {

namespace detail {

/**
 * Classification bits for one instruction. Free functions qualified:
 * TraceView's member predicates of the same name would otherwise hide
 * them inside this scope. Shared with the chunked tile decoder so
 * streamed flags are bit-identical to the flat view's.
 */
uint8_t
classifyInst(Op op, uint32_t latency, bool taken)
{
    uint8_t f = 0;
    if (dsmem::trace::isMemory(op) && latency > 1)
        f |= TraceView::kMiss;
    if (dsmem::trace::isSync(op))
        f |= TraceView::kSync;
    if (dsmem::trace::isAcquire(op))
        f |= TraceView::kAcquire;
    if (dsmem::trace::isRelease(op))
        f |= TraceView::kRelease;
    if (taken)
        f |= TraceView::kTaken;
    if (dsmem::trace::isCompute(op))
        f |= TraceView::kCompute;
    if (dsmem::trace::isMemory(op))
        f |= TraceView::kMemory;
    if (dsmem::trace::producesValue(op))
        f |= TraceView::kProducesValue;
    return f;
}

} // namespace detail

using detail::classifyInst;

TraceView::TraceView(const Trace &t) : name_(t.name())
{
    const size_t n = t.size();
    ops_.resize(n);
    fu_.resize(n);
    flags_.resize(n);
    num_srcs_.resize(n);
    srcs_.resize(n);
    addr_.resize(n);
    latency_.resize(n);
    aux_.resize(n);

    for (size_t i = 0; i < n; ++i) {
        const TraceInst &inst = t[i];
        ops_[i] = inst.op;
        fu_[i] = static_cast<uint8_t>(fuClass(inst.op));
        num_srcs_[i] = inst.num_srcs;
        srcs_[i] = {inst.src[0], inst.src[1], inst.src[2]};
        addr_[i] = inst.addr;
        latency_[i] = inst.latency;
        aux_[i] = inst.aux;

        flags_[i] = classifyInst(inst.op, inst.latency, inst.taken);
    }
}

TraceInst
TraceView::materialize(size_t i) const
{
    TraceInst inst;
    inst.op = ops_[i];
    inst.num_srcs = num_srcs_[i];
    inst.taken = taken(i);
    inst.src[0] = srcs_[i][0];
    inst.src[1] = srcs_[i][1];
    inst.src[2] = srcs_[i][2];
    inst.addr = addr_[i];
    inst.latency = latency_[i];
    inst.aux = aux_[i];
    return inst;
}

Trace
TraceView::toTrace() const
{
    Trace t(name_);
    t.reserve(size());
    for (size_t i = 0; i < size(); ++i)
        t.append(materialize(i));
    return t;
}

} // namespace dsmem::trace
