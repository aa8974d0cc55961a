#ifndef DSMEM_MP_ENGINE_H
#define DSMEM_MP_ENGINE_H

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "memsys/memory_system.h"
#include "mp/arena.h"
#include "mp/sync.h"
#include "mp/task.h"
#include "mp/thread_context.h"
#include "trace/trace.h"
#include "trace/trace_buffer.h"

namespace dsmem::mp {

/** Configuration of the simulated multiprocessor (Section 3.2). */
struct EngineConfig {
    uint32_t num_procs = 16;
    memsys::CacheConfig cache;
    memsys::MemoryConfig mem;
    uint32_t traced_proc = 0;       ///< Whose trace is captured.
    /// Cap on simulated memory in 8-byte slots (default 64 MB). It only
    /// reserves address space: resident memory follows touched slots.
    size_t arena_slots = 8u << 20;
};

/**
 * The multiprocessor execution engine (our Tango Lite).
 *
 * Runs one coroutine thread per simulated processor over the shared
 * cache-coherent memory system. Threads are interleaved in global
 * simulated-time order: each step resumes the thread with the
 * smallest (local cycle, processor id) key, found by scanning one
 * ready key per processor, so coherence events (who invalidates whom,
 * who wins a lock) follow a single causally consistent interleaving
 * and are fully deterministic.
 *
 * Each processor models the paper's trace-generation machine: simple
 * in-order issue, blocking reads, writes retired through a write
 * buffer under release consistency (store latency hidden; the real
 * miss latency is recorded as the trace annotation).
 *
 * The designated processor's annotated instruction trace is captured
 * for the processor timing models in src/core.
 */
class Engine
{
    friend class ThreadContext;

  public:
    explicit Engine(const EngineConfig &config);

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    Arena &arena() { return arena_; }
    SyncManager &sync() { return sync_; }
    const memsys::MemorySystem &memory() const { return memory_; }
    const EngineConfig &config() const { return config_; }

    /** Convenience pass-throughs for application setup. */
    LockId createLock() { return sync_.createLock(); }
    BarrierId createBarrier(uint32_t n = 0);
    EventId createEvent() { return sync_.createEvent(); }

    /** Execution context of processor @p proc. */
    ThreadContext &context(uint32_t proc);

    /**
     * Attach the coroutine body of processor @p proc. The body must
     * have been created against this engine's context(proc).
     */
    void addThread(uint32_t proc, Task task);

    /** Run all threads to completion. Throws on deadlock. */
    void run();

    /** Final local clock of processor @p proc. */
    uint64_t completionCycle(uint32_t proc) const;

    /** Captured trace of the traced processor (moves it out). */
    trace::Trace takeTrace() { return std::move(trace_); }
    const trace::Trace &trace() const { return trace_; }

    const ThreadStats &threadStats(uint32_t proc) const;

  private:
    enum class ThreadState : uint8_t {
        READY,       ///< Resumable; queue entry outstanding.
        HAS_PENDING, ///< Suspended on an op; queue entry outstanding.
        PARKED,      ///< Blocked on synchronization; no queue entry.
        DONE,
    };

    struct Thread {
        Task task;
        std::unique_ptr<ThreadContext> ctx;
        ThreadState state = ThreadState::READY;
        bool spawned = false;
    };

    /**
     * Scheduler key: cycle in the high bits, processor id in the low
     * five (MemorySystem caps num_procs at 32). One uint64 compare
     * then orders by (cycle, proc), and keys are unique because each
     * processor has at most one entry outstanding.
     */
    static constexpr unsigned kProcBits = 5;
    static constexpr uint64_t kProcMask = (1u << kProcBits) - 1;

    static uint64_t packKey(uint64_t cycle, uint32_t proc)
    {
        return (cycle << kProcBits) | proc;
    }

    /**
     * Called by ThreadContext::Awaiter when a thread suspends. Inline
     * (with enqueue): one call per simulated memory or sync operation,
     * on the generation hot path.
     */
    void onSuspend(uint32_t proc)
    {
        Thread &thread = threads_[proc];
        thread.state = ThreadState::HAS_PENDING;
        enqueue(proc, thread.ctx->cycle_);
    }

    /** Process @p thread's suspended sync operation at its local time. */
    void processPending(Thread &thread);

    /**
     * Execute @p ctx's pending LOAD or STORE at its local time:
     * memory-system access, arena data movement, trace record, stats,
     * clock advance.
     */
    void execMemOp(ThreadContext &ctx);

    /** Apply sync wakes: record acquire, set clocks, requeue. */
    void applyWakes(const std::vector<SyncWake> &wakes, trace::Op op);

    /**
     * Consume the DRAM model's completions: wake parked readers
     * (record the load with its real latency, advance their clocks,
     * requeue) and patch deferred store annotations.
     */
    void deliverDramCompletions(memsys::DramModel &dram);

    void enqueue(uint32_t proc, uint64_t cycle)
    {
        // At most one outstanding entry per processor: the slot must
        // be free.
        assert(ready_keys_[proc] == kNoKey);
        ready_keys_[proc] = packKey(cycle, proc);
        ++ready_count_;
    }

    /** The scheduler loop behind run(). */
    void runLoop();

    EngineConfig config_;
    Arena arena_;
    memsys::MemorySystem memory_;
    SyncManager sync_;
    trace::Trace trace_;
    trace::TraceRecorder recorder_; ///< Before threads_: ctxs point at it.
    std::vector<Thread> threads_;

    /**
     * The scheduler: one packed (cycle, proc) key per processor,
     * kNoKey while that processor has no entry outstanding. The run
     * loop extracts the minimum with a linear scan — at 32 slots
     * (four cache lines, typically one) that is cheaper than any
     * heap's pointer chasing and sifting, and the per-slot invariant
     * makes stale entries structurally impossible.
     */
    static constexpr uint64_t kNoKey = UINT64_MAX;
    std::array<uint64_t, kProcMask + 1> ready_keys_;
    uint32_t ready_count_ = 0;

    size_t done_count_ = 0;
    bool ran_ = false;
};

} // namespace dsmem::mp

#endif // DSMEM_MP_ENGINE_H
