#include "core/base_processor.h"

#include "core/sim_context.h"
#include "core/static_processor.h"

namespace dsmem::core {

using trace::Op;
using trace::TraceInst;

RunResult
BaseProcessor::run(const TraceSource &src) const
{
    SimContext ctx;
    return run(src, ctx);
}

RunResult
BaseProcessor::run(const TraceSource &src, SimContext &ctx) const
{
    return runStaticSweep(src, {StaticSweepRow{true, {}}}, ctx).front();
}

RunResult
BaseProcessor::run(const trace::Trace &t) const
{
    RunResult r;
    Breakdown &bd = r.breakdown;

    for (const TraceInst &inst : t) {
        switch (inst.op) {
          case Op::LOAD:
            ++r.instructions;
            bd.busy += 1;
            bd.read += inst.latency - 1;
            if (inst.latency > 1)
                ++r.read_misses;
            break;

          case Op::STORE:
            ++r.instructions;
            bd.busy += 1;
            bd.write += inst.latency - 1;
            break;

          case Op::BRANCH:
            ++r.instructions;
            ++r.branches;
            bd.busy += 1;
            break;

          case Op::LOCK:
          case Op::WAIT_EVENT:
          case Op::BARRIER:
            // Full acquire stall: contention wait plus access latency.
            bd.sync += inst.waitCycles() + inst.latency;
            break;

          case Op::UNLOCK:
          case Op::SET_EVENT:
            // Releases count toward write time (Section 4.1).
            bd.write += inst.latency;
            break;

          default:
            ++r.instructions;
            bd.busy += 1;
            break;
        }
    }

    r.cycles = bd.total();
    return r;
}

} // namespace dsmem::core
