#ifndef DSMEM_SVC_WORKER_H
#define DSMEM_SVC_WORKER_H

#include <cstdint>
#include <string>

namespace dsmem::svc {

struct WorkerOptions {
    std::string socket_path; ///< Coordinator's AF_UNIX listen path.
    uint32_t id = 0;         ///< Slot id assigned by the coordinator.
};

/**
 * Entry point of one worker process (`dsmem_svc worker`): connect to
 * the coordinator, introduce itself (HELLO), receive the campaign
 * declaration (WELCOME), then receive ASSIGNs and run them on a
 * runner::Runner pool of WELCOME's worker_threads threads, each
 * reporting its RESULTs, while a background thread heartbeats the
 * leases. The threads share the worker's trace store, so each trace
 * is resolved once per process.
 *
 * The worker is deliberately stateless between cells: every phase-2
 * result is computed from the immutable trace view alone, so the
 * coordinator may kill, respawn, or re-assign at any moment and the
 * recomputed bits are identical. Returns the process exit code
 * (0 = orderly SHUTDOWN, 1 = connection lost / protocol error).
 */
int workerMain(const WorkerOptions &opts);

} // namespace dsmem::svc

#endif // DSMEM_SVC_WORKER_H
