#ifndef DSMEM_SVC_COORDINATOR_H
#define DSMEM_SVC_COORDINATOR_H

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <sys/types.h>

#include "runner/campaign.h"
#include "svc/protocol.h"

namespace dsmem::svc {

/**
 * Dispatch-layer counters for one coordinated campaign. The lease
 * unit is a planned group (one ASSIGN frame, several rows); every
 * counter but `assigns` and `heartbeats` counts rows, so
 * results / dispatched is the useful fraction of leased work.
 */
struct ServiceStats {
    uint64_t assigns = 0;       ///< ASSIGN frames sent (groups leased).
    uint64_t dispatched = 0;    ///< Rows leased (over all ASSIGNs).
    uint64_t results = 0;       ///< Rows accepted (first completion).
    uint64_t duplicates = 0;    ///< At-least-once redeliveries absorbed.
    uint64_t mismatches = 0;    ///< Conflicting duplicate results (poison).
    uint64_t redispatched = 0;  ///< Leased rows requeued off dead workers.
    uint64_t stolen = 0;        ///< Rows moved between shard queues.
    uint64_t worker_deaths = 0; ///< Connections lost or leases expired.
    uint64_t respawns = 0;      ///< Replacement workers forked.
    uint64_t inline_cells = 0;  ///< Rows run in-process (pool dead).
    uint64_t heartbeats = 0;    ///< HEARTBEAT frames received.
    uint64_t failed_cells = 0;  ///< Worker-reported permanent failures.
    /** Max worker-reported peak RSS (bytes) across all results — the
     *  pool's per-process memory high-water mark. */
    uint64_t peak_rss_bytes = 0;
    /** Max worker-reported resident trace bytes (compressed chunks
     *  when the streaming policy kept the trace chunked, the flat SoA
     *  footprint otherwise). */
    uint64_t view_bytes_resident = 0;
    /** Rows accepted per worker slot (index = slot id). */
    std::vector<uint64_t> cells_by_worker;
    /** Deaths per worker slot. */
    std::vector<uint64_t> deaths_by_worker;
};

struct ServiceOptions {
    /** Worker processes. Each runs max(1, hostCores() / workers)
     *  leases at once (Coordinator::workerThreads). */
    unsigned workers = 2;
    /** Heartbeat silence after which a worker's lease is revoked and
     *  the process SIGKILLed (ms). */
    unsigned lease_ms = 10000;
    /** Worker heartbeat period (ms); shipped in WELCOME. */
    unsigned heartbeat_ms = 500;
    /** Replacement workers forked per slot before it is retired. */
    unsigned respawn_per_slot = 2;
    /** AF_UNIX listen path; "" = auto under /tmp (pid-scoped). */
    std::string socket_path;
    /** Worker executable; "" = /proc/self/exe (dsmem_svc re-execs
     *  itself with the `worker` subcommand). */
    std::string worker_exe;
    /** Print "svc: worker N pid P" lines (the chaos driver's input). */
    bool print_workers = true;
};

/**
 * The sharded campaign coordinator: runs one runner::Campaign to
 * completion across a pool of worker *processes* with journal-backed
 * at-least-once dispatch.
 *
 * Crash-tolerance model (DESIGN.md §13):
 *  - Dispatch is a *lease* of one planned phase-2 group
 *    (Campaign::shardPlan — the same sim::planPhase2 groups the
 *    in-process pool runs at --jobs workers * worker_threads):
 *    advisory `lease` records journal who was asked, the durable
 *    commit stays the campaign's own `row` record, written only when
 *    a result is accepted. Losing any number of leases loses no
 *    data — the cells just run again.
 *  - Each worker runs up to worker_threads leases at once, one per
 *    pool thread, where worker_threads = max(1, hostCores() /
 *    workers): the pool as a whole uses the host, and a worker's
 *    threads share one copy of each trace. The coordinator keeps
 *    that many leases in flight per worker, keyed by ASSIGN seq.
 *  - A worker death (socket EOF, SIGCHLD, or heartbeat silence past
 *    lease_ms) requeues the undone rows of every lease it held, one
 *    group each, plus its shard queue, for re-dispatch; the slot
 *    respawns up to respawn_per_slot times, then retires (the pool
 *    shrinks).
 *  - Duplicate completions (a redispatched cell whose first worker
 *    was slow, not dead) resolve first-result-wins: identical bits
 *    are counted and dropped, different bits poison the run — two
 *    workers disagreeing on a deterministic cell means corruption.
 *  - If the whole pool dies, the coordinator degrades to running the
 *    remaining groups in-process; the exit-code contract holds.
 *  - Killing the coordinator itself loses nothing either: --resume
 *    replays the journal and re-runs only uncommitted cells.
 *
 * Results are bit-identical to `--jobs N` single-process execution
 * for any worker count and any kill schedule, because phase 2 is a
 * pure function of the immutable trace and the campaign orders rows
 * by declaration, never by completion.
 */
class Coordinator
{
  public:
    Coordinator(runner::Campaign &campaign, ServiceOptions opts);
    ~Coordinator();

    /** Run to completion; returns the process exit code (0 iff the
     *  campaign completed every declared row). */
    int run();

    const ServiceStats &stats() const { return stats_; }

    /** Leases each worker runs at once (shipped in WELCOME). */
    unsigned workerThreads() const { return worker_threads_; }

    /** The dispatch counters as a JSON object (EXPERIMENTS.md). */
    std::string statsJson() const;

  private:
    using CellRef = runner::Campaign::CellRef;
    using GroupRef = runner::Campaign::GroupRef;

    struct Slot {
        uint32_t id = 0;
        pid_t pid = -1;
        int fd = -1;
        bool connected = false;
        bool retired = false;
        unsigned respawns = 0;
        uint64_t last_seen_ms = 0; ///< Last frame from this worker.
        std::deque<GroupRef> queue; ///< Shard backlog (unleased).
        /** In-flight leases keyed by ASSIGN seq: each group's rows
         *  still awaiting a RESULT. At most worker_threads_. */
        std::map<uint64_t, GroupRef> leases;
        FrameReader rx;
    };

    struct PendingConn {
        int fd = -1;
        FrameReader rx;
    };

    bool setupSocket(std::string *err);
    bool spawnWorker(Slot &slot);
    void workerDied(Slot &slot, const char *why);
    void retireSlot(Slot &slot);
    /** Drop @p g's settled rows; false when none is left. */
    bool prune(GroupRef &g) const;
    void requeue(GroupRef g);
    bool nextGroup(Slot &slot, GroupRef &out);
    void dispatchIdle();
    void handleFrame(Slot &slot, const Frame &frame);
    void handleResult(Slot &slot, const ResultMsg &msg);
    void acceptConnections();
    void reapChildren();
    void checkLeases();
    void settle(CellRef cell, bool failed);
    void shutdownPool();
    void runInlineFallback();
    bool poolAlive() const;
    std::string specLabel(const CellRef &cell) const;

    runner::Campaign &campaign_;
    ServiceOptions opts_;
    unsigned worker_threads_ = 1;
    ServiceStats stats_;
    std::string socket_path_;
    std::string welcome_; ///< Encoded once, sent to every worker.
    int listen_fd_ = -1;
    uint64_t epoch_ = 0;
    uint64_t seq_ = 0;
    size_t remaining_ = 0;
    std::vector<Slot> slots_;
    std::vector<PendingConn> pending_;
    std::deque<GroupRef> redispatch_; ///< Orphaned groups, FIFO.
    std::set<CellRef> done_;
    std::set<CellRef> failed_;
};

} // namespace dsmem::svc

#endif // DSMEM_SVC_COORDINATOR_H
