#include "mp/engine.h"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace dsmem::mp {

using trace::Op;
using trace::TraceInst;

Engine::Engine(const EngineConfig &config)
    : config_(config),
      arena_(config.arena_slots),
      memory_(config.num_procs, config.cache, config.mem),
      sync_(config.num_procs, config.mem)
{
    if (config.traced_proc >= config.num_procs)
        throw std::invalid_argument("traced_proc out of range");
    threads_.resize(config.num_procs);
    for (uint32_t p = 0; p < config.num_procs; ++p)
        threads_[p].ctx = std::make_unique<ThreadContext>(this, p);
    sched_leaves_ = std::bit_ceil(config.num_procs);
    sched_tree_.fill(kNoKey);
}

BarrierId
Engine::createBarrier(uint32_t n)
{
    return sync_.createBarrier(n == 0 ? config_.num_procs : n);
}

ThreadContext &
Engine::context(uint32_t proc)
{
    return *threads_.at(proc).ctx;
}

void
Engine::addThread(uint32_t proc, Task task)
{
    Thread &thread = threads_.at(proc);
    if (thread.spawned)
        throw std::logic_error("thread already attached to processor");
    if (!task.valid())
        throw std::invalid_argument("invalid task");
    thread.task = std::move(task);
    thread.spawned = true;
    thread.state = ThreadState::READY;
    enqueue(proc, 0);
}

void
Engine::applyWakes(const std::vector<SyncWake> &wakes, Op op)
{
    for (const SyncWake &wake : wakes) {
        Thread &thread = threads_.at(wake.proc);
        assert(thread.state == ThreadState::PARKED);
        ThreadContext &ctx = *thread.ctx;

        TraceInst inst = trace::makeSync(op, ctx.pending_.sync_id);
        inst.latency = wake.transfer;
        inst.aux = wake.wait;
        ctx.recordTimed(inst);

        ThreadStats &stats = ctx.stats_;
        switch (op) {
          case Op::LOCK:
            ++stats.locks;
            break;
          case Op::BARRIER:
            ++stats.barriers;
            break;
          case Op::WAIT_EVENT:
            ++stats.wait_events;
            break;
          default:
            assert(false && "unexpected wake op");
        }
        stats.sync_wait_cycles += wake.wait;
        stats.sync_transfer_cycles += wake.transfer;

        ctx.cycle_ = wake.time;
        ctx.pending_.kind = ThreadContext::PendingKind::NONE;
        thread.state = ThreadState::READY;
        enqueue(wake.proc, ctx.cycle_);
    }
}

void
Engine::deliverDramCompletions(memsys::DramModel &dram)
{
    std::vector<memsys::DramModel::Completion> &comps =
        dram.drainCompletions();
    for (const memsys::DramModel::Completion &c : comps) {
        if (c.is_read) {
            // Tag == requesting processor: blocking reads allow one
            // outstanding read per thread, parked since it issued.
            Thread &thread = threads_.at(c.proc);
            assert(thread.state == ThreadState::PARKED);
            ThreadContext &ctx = *thread.ctx;
            ThreadContext::PendingOp &op = ctx.pending_;
            assert(op.kind == ThreadContext::PendingKind::LOAD);

            if (ctx.rec_) [[unlikely]] {
                TraceInst inst;
                inst.op = Op::LOAD;
                inst.addr = op.addr;
                inst.latency = static_cast<uint32_t>(c.latency);
                inst.num_srcs = op.num_deps;
                for (int i = 0; i < op.num_deps; ++i)
                    inst.src[i] = op.deps[i];
                ctx.rec_->append(inst);
            }
            ctx.cycle_ = c.finish;
            op.kind = ThreadContext::PendingKind::NONE;
            thread.state = ThreadState::READY;
            enqueue(c.proc, ctx.cycle_);
        } else if (c.tag != memsys::DramModel::kNoTag) {
            // Traced-processor store: patch the provisional latency
            // annotation with the cycles the write really took.
            recorder_.patchLatency(static_cast<size_t>(c.tag),
                                   static_cast<uint32_t>(c.latency));
        }
    }
    comps.clear();
}

void
Engine::execMemOp(ThreadContext &ctx)
{
    ThreadContext::PendingOp &op = ctx.pending_;
    ThreadStats &stats = ctx.stats_;
    uint64_t now = ctx.cycle_;
    uint32_t proc = ctx.proc_;

    auto build_mem_inst = [&](Op mem_op, uint32_t latency) {
        TraceInst inst;
        inst.op = mem_op;
        inst.addr = op.addr;
        inst.latency = latency;
        inst.num_srcs = op.num_deps;
        for (int i = 0; i < op.num_deps; ++i)
            inst.src[i] = op.deps[i];
        return inst;
    };

    if (op.kind == ThreadContext::PendingKind::LOAD) {
        memsys::AccessResult res = memory_.read(proc, op.addr, now);
        Val out_val;
        if (op.is_float) {
            out_val.f = arena_.loadFloat(op.addr);
            out_val.i = Val::safeToInt(out_val.f);
        } else {
            out_val.i = arena_.loadInt(op.addr);
            out_val.f = static_cast<double>(out_val.i);
        }
        if (res.deferred) [[unlikely]] {
            // The fetch is queued at the DRAM. The value (today's
            // semantics: arena state at issue) travels with the
            // parked thread; deliverDramCompletions records the load
            // with its real latency and resumes at the completion
            // cycle. pending_ keeps the addr/deps for that record.
            out_val.inst = ctx.next_inst_++;
            ++stats.instructions;
            ++stats.reads;
            ++stats.read_misses;
            op.result = out_val;
            threads_[proc].state = ThreadState::PARKED;
            return;
        }
        // Untraced processors (15 of 16) skip the record build.
        out_val.inst = ctx.next_inst_++;
        ++stats.instructions;
        if (ctx.rec_) [[unlikely]]
            ctx.rec_->append(build_mem_inst(Op::LOAD, res.latency));
        ++stats.reads;
        if (res.isMiss())
            ++stats.read_misses;
        // Blocking read: the in-order processor stalls for the value.
        ctx.cycle_ += res.latency;
        op.result = out_val;
    } else {
        // Deferred write misses patch the annotation at the record
        // the store is about to occupy (traced processor only).
        uint64_t tag = ctx.rec_
            ? static_cast<uint64_t>(ctx.next_inst_)
            : memsys::DramModel::kNoTag;
        memsys::AccessResult res = memory_.write(proc, op.addr, now, tag);
        if (op.is_float)
            arena_.storeFloat(op.addr, op.data.f);
        else
            arena_.storeInt(op.addr, op.data.i);
        ++ctx.next_inst_;
        ++stats.instructions;
        if (ctx.rec_) [[unlikely]] {
            // A deferred store's chunk stays raw until its patch.
            if (res.deferred)
                ctx.rec_->appendDeferred(
                    build_mem_inst(Op::STORE, res.latency));
            else
                ctx.rec_->append(build_mem_inst(Op::STORE, res.latency));
        }
        ++stats.writes;
        if (res.isWriteMiss())
            ++stats.write_misses;
        // Buffered write under RC: one cycle to the processor.
        ctx.cycle_ += 1;
        op.result = Val{};
    }
}

void
Engine::processPending(Thread &thread)
{
    ThreadContext &ctx = *thread.ctx;
    ThreadContext::PendingOp &op = ctx.pending_;
    ThreadStats &stats = ctx.stats_;
    uint64_t now = ctx.cycle_;
    uint32_t proc = ctx.proc_;

    auto record_acquire = [&](Op sync_op, const SyncOutcome &out) {
        TraceInst inst = trace::makeSync(sync_op, op.sync_id);
        inst.latency = out.transfer;
        inst.aux = out.wait;
        ctx.recordTimed(inst);
        stats.sync_wait_cycles += out.wait;
        stats.sync_transfer_cycles += out.transfer;
        ctx.cycle_ += out.wait + out.transfer;
    };

    auto record_release = [&](Op sync_op, const SyncOutcome &out) {
        TraceInst inst = trace::makeSync(sync_op, op.sync_id);
        inst.latency = out.transfer;
        inst.aux = 0;
        ctx.recordTimed(inst);
        // Releases retire through the write buffer under release
        // consistency: the processor continues after one cycle.
        ctx.cycle_ += 1;
    };

    switch (op.kind) {
      case ThreadContext::PendingKind::LOCK: {
        SyncOutcome out = sync_.lockAcquire(op.sync_id, proc, now);
        if (!out.granted) {
            thread.state = ThreadState::PARKED;
            return;
        }
        ++stats.locks;
        record_acquire(Op::LOCK, out);
        break;
      }

      case ThreadContext::PendingKind::UNLOCK: {
        SyncOutcome out = sync_.lockRelease(op.sync_id, proc, now);
        ++stats.unlocks;
        record_release(Op::UNLOCK, out);
        applyWakes(out.wakes, Op::LOCK);
        break;
      }

      case ThreadContext::PendingKind::BARRIER: {
        SyncOutcome out = sync_.barrierArrive(op.sync_id, proc, now);
        if (!out.granted) {
            thread.state = ThreadState::PARKED;
            return;
        }
        ++stats.barriers;
        record_acquire(Op::BARRIER, out);
        applyWakes(out.wakes, Op::BARRIER);
        break;
      }

      case ThreadContext::PendingKind::WAIT_EVENT: {
        SyncOutcome out = sync_.eventWait(op.sync_id, proc, now);
        if (!out.granted) {
            thread.state = ThreadState::PARKED;
            return;
        }
        ++stats.wait_events;
        record_acquire(Op::WAIT_EVENT, out);
        break;
      }

      case ThreadContext::PendingKind::SET_EVENT: {
        SyncOutcome out = sync_.eventSet(op.sync_id, proc, now);
        ++stats.set_events;
        record_release(Op::SET_EVENT, out);
        applyWakes(out.wakes, Op::WAIT_EVENT);
        break;
      }

      case ThreadContext::PendingKind::LOAD:
      case ThreadContext::PendingKind::STORE:
      case ThreadContext::PendingKind::NONE:
        // runLoop hands memory operations to execMemOp directly.
        throw std::logic_error("processPending with no sync op pending");
    }

    op.kind = ThreadContext::PendingKind::NONE;
    thread.state = ThreadState::READY;
}

void
Engine::run()
{
    if (ran_)
        throw std::logic_error("Engine::run may only be called once");
    ran_ = true;

    size_t spawned = 0;
    for (const Thread &t : threads_)
        if (t.spawned)
            ++spawned;
    if (spawned == 0)
        throw std::logic_error("Engine::run with no threads attached");

    runLoop();

    // Runs that used the DRAM model fold its accounting into the
    // cache statistics before anyone reads them.
    memory_.finalizeDramStats();

    if (done_count_ != spawned) {
        throw std::runtime_error(
            "deadlock: " + std::to_string(spawned - done_count_) +
            " thread(s) blocked (" + std::to_string(sync_.parkedCount()) +
            " parked on synchronization)");
    }
    capture_ = recorder_.finish();
    capture_stats_ = recorder_.stats();
}

trace::Trace &
Engine::trace()
{
    if (!capture_ || !trace_.empty())
        return trace_;
    trace_.reserve(capture_->size());
    trace::TraceTile tile;
    for (size_t c = 0; c < capture_->chunkCount(); ++c) {
        capture_->decodeChunk(c, tile);
        for (size_t j = 0; j < tile.count; ++j) {
            TraceInst inst;
            inst.op = tile.ops[j];
            inst.num_srcs = tile.num_srcs[j];
            inst.taken = tile.flags[j] & trace::TraceView::kTaken;
            inst.src[0] = tile.srcs[j][0];
            inst.src[1] = tile.srcs[j][1];
            inst.src[2] = tile.srcs[j][2];
            inst.addr = tile.addr[j];
            inst.latency = tile.latency[j];
            inst.aux = tile.aux[j];
            trace_.append(inst);
        }
    }
    return trace_;
}

void
Engine::runLoop()
{
    memsys::DramModel *dram = memory_.dram();
    for (;;) {
        if (ready_count_ == 0) {
            if (dram == nullptr || dram->idle())
                break;
            // Every thread is parked (or done) and requests are in
            // flight: drain the DRAM; read completions wake their
            // parked threads.
            dram->advanceTo(memsys::DramModel::kNever);
            deliverDramCompletions(*dram);
            if (ready_count_ == 0)
                break; // Only write completions: nothing to resume.
            continue;
        }

        // The (cycle, proc) minimum is the tree's root once the last
        // popped key is gone. A leaf is set iff its thread is READY or
        // HAS_PENDING, so no staleness check is needed.
        retirePopped();
        const uint64_t best = sched_tree_[1];

        if (dram != nullptr) [[unlikely]] {
            // Co-simulation invariant: every DRAM dispatch instant
            // strictly before the next thread event is decided now,
            // when all arrivals up to that instant are known (engine
            // time is monotonic) and none after it can interfere.
            // Instants >= the event wait: that event may enqueue an
            // arrival the scheduler is entitled to see.
            uint64_t next_cycle = best >> kProcBits;
            if (dram->nextDispatchCycle() < next_cycle) {
                dram->advanceTo(next_cycle - 1);
                deliverDramCompletions(*dram);
                continue; // A wake may now precede the old minimum.
            }
        }

        uint32_t proc = static_cast<uint32_t>(best & kProcMask);
        popped_ = proc;
        --ready_count_;
        Thread &thread = threads_[proc];

        if (thread.state == ThreadState::HAS_PENDING) {
            // Memory operations dominate the event stream, so they go
            // straight to execMemOp; processPending handles sync ops.
            ThreadContext &ctx = *thread.ctx;
            if (ctx.pending_.kind == ThreadContext::PendingKind::LOAD ||
                ctx.pending_.kind == ThreadContext::PendingKind::STORE) {
                execMemOp(ctx);
                if (thread.state == ThreadState::PARKED) [[unlikely]]
                    continue; // Blocking read parked on the DRAM.
                ctx.pending_.kind = ThreadContext::PendingKind::NONE;
                thread.state = ThreadState::READY;
            } else {
                processPending(thread);
                if (thread.state == ThreadState::PARKED)
                    continue;
            }
        }

        // Resume the innermost suspended coroutine (a SubTask helper
        // or the top-level body itself).
        if (thread.ctx->resume_handle_) {
            std::coroutine_handle<> h = thread.ctx->resume_handle_;
            thread.ctx->resume_handle_ = nullptr;
            h.resume();
        } else {
            thread.task.resume();
        }
        if (thread.task.done()) {
            thread.task.rethrowIfFailed();
            thread.state = ThreadState::DONE;
            ++done_count_;
        }
        // Otherwise the coroutine suspended on its next operation and
        // onSuspend() already re-enqueued it.
    }
}

uint64_t
Engine::completionCycle(uint32_t proc) const
{
    return threads_.at(proc).ctx->cycle();
}

const ThreadStats &
Engine::threadStats(uint32_t proc) const
{
    return threads_.at(proc).ctx->threadStats();
}

} // namespace dsmem::mp
