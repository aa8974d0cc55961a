#include "trace/trace.h"

#include <stdexcept>

namespace dsmem::trace {

InstIndex
Trace::append(const TraceInst &inst)
{
    if (insts_.size() >= static_cast<size_t>(kNoSrc))
        throw std::length_error("Trace exceeds index space");
    insts_.push_back(inst);
    return static_cast<InstIndex>(insts_.size() - 1);
}

size_t
Trace::validate() const
{
    for (size_t i = 0; i < insts_.size(); ++i) {
        const TraceInst &inst = insts_[i];
        if (inst.num_srcs > kMaxSrcs)
            return i;
        for (int s = 0; s < inst.num_srcs; ++s) {
            InstIndex producer = inst.src[s];
            if (producer == kNoSrc)
                return i;
            if (producer >= i)
                return i;
            if (!producesValue(insts_[producer].op))
                return i;
        }
    }
    return insts_.size();
}

} // namespace dsmem::trace
