#include "mp/thread_context.h"

#include "mp/engine.h"

namespace dsmem::mp {

using trace::InstIndex;
using trace::TraceInst;

ThreadContext::ThreadContext(Engine *engine, uint32_t proc)
    : engine_(engine),
      rec_(proc == engine->config().traced_proc ? &engine->recorder_
                                                : nullptr),
      proc_(proc)
{}

uint32_t
ThreadContext::numProcs() const
{
    return engine_->config().num_procs;
}

Arena &
ThreadContext::arena()
{
    return engine_->arena();
}

InstIndex
ThreadContext::recordTimed(const TraceInst &inst)
{
    // Sync entries take an SSA index but are not busy cycles, so
    // stats_.instructions is left alone.
    assert(isSync(inst.op));
    if (rec_)
        rec_->append(inst);
    return next_inst_++;
}

// ---------------------------------------------------------------------
// Memory and synchronization awaitables
// ---------------------------------------------------------------------

void
ThreadContext::Awaiter::await_suspend(std::coroutine_handle<> handle) noexcept
{
    ctx->resume_handle_ = handle;
    ctx->engine_->onSuspend(ctx->proc_);
}

ThreadContext::Awaiter
ThreadContext::lock(LockId lock)
{
    pending_ = PendingOp{};
    pending_.kind = PendingKind::LOCK;
    pending_.sync_id = lock;
    return Awaiter{this};
}

ThreadContext::Awaiter
ThreadContext::unlock(LockId lock)
{
    pending_ = PendingOp{};
    pending_.kind = PendingKind::UNLOCK;
    pending_.sync_id = lock;
    return Awaiter{this};
}

ThreadContext::Awaiter
ThreadContext::barrier(BarrierId barrier)
{
    pending_ = PendingOp{};
    pending_.kind = PendingKind::BARRIER;
    pending_.sync_id = barrier;
    return Awaiter{this};
}

ThreadContext::Awaiter
ThreadContext::waitEvent(EventId event)
{
    pending_ = PendingOp{};
    pending_.kind = PendingKind::WAIT_EVENT;
    pending_.sync_id = event;
    return Awaiter{this};
}

ThreadContext::Awaiter
ThreadContext::setEvent(EventId event)
{
    pending_ = PendingOp{};
    pending_.kind = PendingKind::SET_EVENT;
    pending_.sync_id = event;
    return Awaiter{this};
}

} // namespace dsmem::mp
