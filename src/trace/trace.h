#ifndef DSMEM_TRACE_TRACE_H
#define DSMEM_TRACE_TRACE_H

#include <string>
#include <vector>

#include "trace/instruction.h"

namespace dsmem::trace {

/**
 * An annotated dynamic instruction trace for one simulated processor.
 *
 * Produced by the multiprocessor simulation phase (src/mp) and
 * consumed by every processor timing model (src/core), mirroring the
 * paper's methodology: "we choose the dynamic instruction trace for
 * one of the processes from the multiprocessor simulation and feed it
 * through our processor simulator" (Section 3.2).
 */
class Trace
{
  public:
    Trace() = default;
    explicit Trace(std::string name) : name_(std::move(name)) {}

    /** Append an instruction; returns its index (= SSA name). */
    InstIndex append(const TraceInst &inst);

    /** Pre-allocate room for @p n instructions. */
    void reserve(size_t n) { insts_.reserve(n); }

    size_t size() const { return insts_.size(); }
    bool empty() const { return insts_.empty(); }

    const TraceInst &operator[](size_t idx) const { return insts_[idx]; }
    TraceInst &operator[](size_t idx) { return insts_[idx]; }

    /** Bounds-checked access. */
    const TraceInst &at(size_t idx) const { return insts_.at(idx); }

    std::vector<TraceInst>::const_iterator begin() const
    {
        return insts_.begin();
    }
    std::vector<TraceInst>::const_iterator end() const
    {
        return insts_.end();
    }

    const std::string &name() const { return name_; }

    /** Exact equality (name and every instruction). */
    friend bool operator==(const Trace &a, const Trace &b)
    {
        return a.name_ == b.name_ && a.insts_ == b.insts_;
    }

    /**
     * Validate SSA well-formedness: every source index refers to an
     * earlier instruction that produces a value. Returns the index of
     * the first offending instruction, or size() if the trace is
     * well formed.
     */
    size_t validate() const;

  private:
    std::string name_;
    std::vector<TraceInst> insts_;
};

} // namespace dsmem::trace

#endif // DSMEM_TRACE_TRACE_H
