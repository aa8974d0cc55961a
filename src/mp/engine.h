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
#include "trace/trace_stats.h"

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
 * smallest (local cycle, processor id) key, the root of a winner
 * tree over one ready key per processor, so coherence events (who
 * invalidates whom, who wins a lock) follow a single causally
 * consistent interleaving and are fully deterministic.
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

    /**
     * Captured trace of the traced processor, as a successful run()
     * leaves it: compressed (trace::TraceRecorder records straight
     * into the ChunkedView the store writes), with its statistics.
     * Null before run().
     */
    const std::shared_ptr<const trace::ChunkedView> &capture() const
    {
        return capture_;
    }
    const trace::TraceStats &captureStats() const
    {
        return capture_stats_;
    }

    /**
     * The capture decoded into an AoS Trace (tools and tests), kept
     * once decoded; takeTrace() moves it out.
     */
    trace::Trace &trace();
    trace::Trace takeTrace() { return std::move(trace()); }

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
        // At most one outstanding entry per processor: the leaf must
        // be free, or hold the key this processor was just popped on.
        if (popped_ != proc) {
            retirePopped();
            assert(sched_tree_[sched_leaves_ + proc] == kNoKey);
        }
        popped_ = kNoProc;
        setLeaf(proc, packKey(cycle, proc));
        ++ready_count_;
    }

    /**
     * Write leaf @p proc and replay its path to the root: each node
     * holds the smaller key of its two children.
     */
    void setLeaf(uint32_t proc, uint64_t key)
    {
        uint32_t i = sched_leaves_ + proc;
        sched_tree_[i] = key;
        while (i > 1) {
            const uint64_t a = sched_tree_[i];
            const uint64_t b = sched_tree_[i ^ 1];
            i >>= 1;
            sched_tree_[i] = a < b ? a : b;
        }
    }

    /** Clear the leaf of the processor popped last, if still set. */
    void retirePopped()
    {
        if (popped_ != kNoProc) {
            setLeaf(popped_, kNoKey);
            popped_ = kNoProc;
        }
    }

    /** The scheduler loop behind run(). */
    void runLoop();

    EngineConfig config_;
    Arena arena_;
    memsys::MemorySystem memory_;
    SyncManager sync_;
    trace::TraceRecorder recorder_; ///< Before threads_: ctxs point at it.
    std::shared_ptr<const trace::ChunkedView> capture_;
    trace::TraceStats capture_stats_;
    trace::Trace trace_; ///< trace()'s decode of capture_.
    std::vector<Thread> threads_;

    /**
     * The scheduler: a winner tree over one packed (cycle, proc) key
     * per processor (leaf sched_leaves_ + proc, kNoKey while that
     * processor has no entry outstanding); node i holds the smaller
     * of nodes 2i and 2i+1, so the root, node 1, is the minimum.
     * Keys are unique, so the root is the one minimum a linear scan
     * of the leaves would find.
     * A pop leaves its key in the leaf (popped_) until the next
     * enqueue or pop: the popped processor usually re-enqueues
     * before anything else happens, and then one path replay of
     * log2(leaves) steps does both the removal and the insertion.
     * The per-leaf invariant makes stale entries structurally
     * impossible.
     */
    static constexpr uint64_t kNoKey = UINT64_MAX;
    static constexpr uint32_t kNoProc = UINT32_MAX;
    std::array<uint64_t, 2 * (kProcMask + 1)> sched_tree_;
    uint32_t sched_leaves_ = 1; ///< bit_ceil(num_procs).
    uint32_t popped_ = kNoProc;
    uint32_t ready_count_ = 0;

    size_t done_count_ = 0;
    bool ran_ = false;
};

} // namespace dsmem::mp

#endif // DSMEM_MP_ENGINE_H
