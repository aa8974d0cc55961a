#ifndef DSMEM_MP_SYNC_H
#define DSMEM_MP_SYNC_H

#include <cstdint>
#include <deque>
#include <vector>

#include "memsys/config.h"
#include "trace/instruction.h"

namespace dsmem::mp {

using LockId = uint32_t;
using BarrierId = uint32_t;
using EventId = uint32_t;

/** A thread to be woken after a synchronization state change. */
struct SyncWake {
    uint32_t proc;     ///< Processor to wake.
    uint64_t time;     ///< Global cycle at which it proceeds.
    uint32_t wait;     ///< Contention/imbalance stall (not hideable).
    uint32_t transfer; ///< Sync-variable access latency (hideable).
};

/** Outcome of a synchronization operation processed by the engine. */
struct SyncOutcome {
    bool granted = true;         ///< False: the caller parks.
    uint32_t wait = 0;           ///< Caller's contention wait cycles.
    uint32_t transfer = 0;       ///< Caller's access latency cycles.
    std::vector<SyncWake> wakes; ///< Other threads released.
};

/** Per-object synchronization statistics. */
struct SyncObjectStats {
    uint64_t acquires = 0;
    uint64_t contended_acquires = 0;
    uint64_t total_wait = 0;
};

/**
 * State of every lock, barrier, and event in the simulated machine,
 * following the Argonne macro package primitives the applications use
 * (Section 3.3): locks/unlocks, barriers, and wait/set events for
 * producer-consumer interactions.
 *
 * Timing model: accessing a synchronization variable costs the cache
 * hit latency when this processor touched it last and the miss
 * latency when it must be transferred from another processor — the
 * "latency for accessing free locks" that Section 4.1.2 reports as
 * the hideable fraction of acquire overhead. Waiting for a holder,
 * barrier stragglers, or an unset event is contention/imbalance time,
 * which no processor-side technique can hide.
 */
class SyncManager
{
  public:
    SyncManager(uint32_t num_procs, const memsys::MemoryConfig &mem_config);

    LockId createLock();
    BarrierId createBarrier(uint32_t participants);
    EventId createEvent();

    uint32_t numLocks() const { return static_cast<uint32_t>(locks_.size()); }
    uint32_t numBarriers() const
    {
        return static_cast<uint32_t>(barriers_.size());
    }
    uint32_t numEvents() const
    {
        return static_cast<uint32_t>(events_.size());
    }

    /** Processor @p proc attempts to acquire @p lock at time @p now. */
    SyncOutcome lockAcquire(LockId lock, uint32_t proc, uint64_t now);

    /**
     * Processor @p proc releases @p lock at time @p now. The outcome's
     * `transfer` is the release's own write latency (folded into write
     * time by the paper); `wakes` holds the next holder, if any.
     */
    SyncOutcome lockRelease(LockId lock, uint32_t proc, uint64_t now);

    /** Arrival at a barrier; granted only for the last arriver. */
    SyncOutcome barrierArrive(BarrierId barrier, uint32_t proc,
                              uint64_t now);

    /** Wait for an event to be set. */
    SyncOutcome eventWait(EventId event, uint32_t proc, uint64_t now);

    /** Set an event, releasing all current waiters. */
    SyncOutcome eventSet(EventId event, uint32_t proc, uint64_t now);

    /** Re-arm an event (ANL CLEAREVENT). */
    void eventClear(EventId event);

    uint32_t parkedCount() const { return parked_count_; }

    const SyncObjectStats &lockStats(LockId lock) const
    {
        return locks_.at(lock).stats;
    }

  private:
    struct Waiter {
        uint32_t proc;
        uint64_t arrival;
    };

    struct LockState {
        bool held = false;
        uint32_t holder = 0;
        int32_t last_owner = -1; ///< Last processor to hold the lock.
        bool spun = false;       ///< Someone waited during this holding.
        std::deque<Waiter> waiters;
        SyncObjectStats stats;
    };

    struct BarrierState {
        uint32_t participants = 0;
        uint64_t generation = 0;
        std::vector<Waiter> arrived;
    };

    struct EventState {
        bool set = false;
        int32_t setter = -1;
        std::vector<Waiter> waiters;
    };

    uint32_t hitLatency() const { return mem_config_.hit_latency; }
    uint32_t missLatency() const { return mem_config_.miss_latency; }

    uint32_t num_procs_;
    memsys::MemoryConfig mem_config_;
    std::vector<LockState> locks_;
    std::vector<BarrierState> barriers_;
    std::vector<EventState> events_;
    uint32_t parked_count_ = 0;
};

} // namespace dsmem::mp

#endif // DSMEM_MP_SYNC_H
