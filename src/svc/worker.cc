#include "svc/worker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "runner/campaign.h"
#include "runner/runner.h"
#include "runner/trace_store.h"
#include "sim/sampling.h"
#include "sim/trace_bundle.h"
#include "svc/protocol.h"
#include "util/failpoint.h"
#include "util/sysinfo.h"

namespace dsmem::svc {

namespace {

int
connectCoordinator(const std::string &path, std::string *err)
{
    try {
        util::failpoint("svc.connect");
    } catch (const std::exception &e) {
        *err = e.what();
        return -1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        *err = "socket path too long: " + path;
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // Retry briefly: the coordinator binds before spawning, but an
    // externally launched worker may race the listen().
    for (int attempt = 0; attempt < 100; ++attempt) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            *err = std::string("socket: ") + std::strerror(errno);
            return -1;
        }
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        int e = errno;
        ::close(fd);
        if (e != ENOENT && e != ECONNREFUSED) {
            *err = std::string("connect: ") + std::strerror(e);
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    *err = "connect: coordinator never came up at " + path;
    return -1;
}

/** What a worker memoizes per declared unit. */
struct UnitState {
    /** Serializes the unit's phase-1 resolution: the first pool
     *  thread resolves the trace and reports where it came from; the
     *  others then hit the store's memo. */
    std::mutex mu;
    /** Live points (one trace key per unit). */
    std::shared_ptr<const sim::LivePointSet> lp;
    /** Trace provenance already reported. */
    bool trace_sent = false;
};

/** All state one connected worker needs across cells. */
struct WorkerState {
    WelcomeMsg cfg;
    /** The campaign's fault policy and sampling plan from cfg, in
     *  the form runner::runPhase2Group takes. */
    runner::RunnerOptions opts;
    std::unique_ptr<runner::TraceStore> store; ///< Thread safe.
    /** Index = unit; sized once from cfg, never resized. */
    std::unique_ptr<UnitState[]> units;
};

/**
 * Execute one assigned group and return one RESULT per row, in the
 * group's row order; never throws. Both phases are the in-process
 * pool's job bodies: runner::resolvePhase1 (the unit's trace through
 * the shared on-disk store) and runner::runPhase2Group. A failure
 * fails every row permanently — the coordinator records it, it does
 * not re-lease. Runs concurrently on the worker's pool threads.
 */
std::vector<ResultMsg>
runAssign(WorkerState &st, const AssignMsg &a)
{
    const UnitDecl &u = st.cfg.units[a.unit];
    const sim::AppId app = static_cast<sim::AppId>(u.app);
    sim::ExecGroup group;
    group.rows.assign(a.rows.begin(), a.rows.end());
    group.fused = group.rows.size() > 1; // Only sweep families.

    std::vector<ResultMsg> out(group.rows.size());
    for (size_t i = 0; i < out.size(); ++i) {
        out[i].unit = a.unit;
        out[i].spec = a.rows[i];
        out[i].seq = a.seq;
    }
    auto failAll = [&out](const std::string &what) {
        for (ResultMsg &r : out) {
            r.ok = 0;
            r.error = what;
        }
        return out;
    };

    // Live points are memoized per unit, so only the first group of
    // a unit's trace asks for them.
    UnitState &us = st.units[a.unit];
    std::unique_lock<std::mutex> unit_lock(us.mu);
    const bool want_points =
        st.opts.sampling.enabled() && !us.lp &&
        std::any_of(group.rows.begin(), group.rows.end(), [&](size_t s) {
            return u.specs[s].kind == sim::ModelSpec::Kind::DS;
        });
    runner::Phase1Outcome p1 = runner::resolvePhase1(
        *st.store, app, u.mem, u.small != 0, st.opts, want_points);
    if (p1.bundle == nullptr) {
        const runner::UnitError &e = p1.errors.back();
        return failAll(e.site + ": " + e.message);
    }
    const sim::ViewBundle *vb = p1.bundle;
    if (want_points)
        us.lp = p1.lp;
    const std::shared_ptr<const sim::LivePointSet> lp = us.lp;
    if (!us.trace_sent) {
        us.trace_sent = true;
        ResultMsg &first = out.front();
        first.has_trace = 1;
        first.trace_origin = std::string(sim::traceOriginName(p1.origin));
        first.trace_instructions = vb->stats.instructions;
        first.trace_wall_ms = p1.wall_ms;
        first.gen_ms = p1.timing.gen_ms;
        first.load_ms = p1.timing.load_ms;
    }
    unit_lock.unlock();

    thread_local core::SimContext sim_ctx;
    runner::GroupOutcome res = runner::runPhase2Group(
        *vb, app, u.specs, group, st.opts, lp.get(), sim_ctx);
    const uint64_t rss = util::peakRssBytes();
    for (size_t i = 0; i < out.size(); ++i) {
        ResultMsg &r = out[i];
        if (!res.ok) {
            r.ok = 0;
            r.error = res.errors[i].site + ": " + res.errors[i].message;
            continue;
        }
        r.result = res.results[i];
        r.sampling = res.sampling[i];
        // The lanes ran interleaved: split the wall clock evenly, as
        // the in-process campaign does.
        r.wall_ms = res.wall_ms / static_cast<double>(out.size());
        r.peak_rss_bytes = rss;
        r.view_bytes_resident = vb->traceBytesResident();
    }
    return out;
}

} // namespace

int
workerMain(const WorkerOptions &opts)
{
    std::signal(SIGPIPE, SIG_IGN);

    std::string err;
    int fd = connectCoordinator(opts.socket_path, &err);
    if (fd < 0) {
        std::fprintf(stderr, "dsmem_svc worker %u: %s\n", opts.id,
                     err.c_str());
        return 1;
    }

    // One mutex serializes the pool threads' RESULTs with the
    // heartbeat thread's beats; frames never interleave.
    std::mutex send_mu;
    auto send = [&](MsgType type, const std::string &payload,
                    std::string *e) {
        std::lock_guard<std::mutex> lock(send_mu);
        return sendFrame(fd, "svc.worker.send", type, payload, e);
    };

    HelloMsg hello;
    hello.worker = opts.id;
    hello.pid = static_cast<uint64_t>(::getpid());
    if (!send(MsgType::HELLO, encodeHello(hello), &err)) {
        std::fprintf(stderr, "dsmem_svc worker %u: hello: %s\n",
                     opts.id, err.c_str());
        ::close(fd);
        return 1;
    }

    Frame frame;
    if (!recvFrame(fd, "svc.worker.recv", frame, &err) ||
        frame.type != MsgType::WELCOME) {
        std::fprintf(stderr, "dsmem_svc worker %u: welcome: %s\n",
                     opts.id, err.c_str());
        ::close(fd);
        return 1;
    }
    WorkerState st;
    if (!decodeWelcome(frame.payload, st.cfg)) {
        std::fprintf(stderr,
                     "dsmem_svc worker %u: malformed welcome\n",
                     opts.id);
        ::close(fd);
        return 1;
    }
    st.opts.max_attempts = st.cfg.max_attempts;
    st.opts.backoff_base_ms = st.cfg.backoff_base_ms;
    st.opts.backoff_cap_ms = st.cfg.backoff_cap_ms;
    st.opts.sampling = st.cfg.plan;
    st.store = std::make_unique<runner::TraceStore>(
        st.cfg.trace_dir, static_cast<sim::StreamExec>(st.cfg.stream_exec));
    st.units = std::make_unique<UnitState[]>(st.cfg.units.size());

    // Heartbeat thread: renews the coordinator's leases while long
    // phase-1 generations or phase-2 runs keep every pool thread
    // from reporting.
    std::atomic<bool> stop{false};
    std::mutex hb_mu;
    std::condition_variable hb_cv;
    std::thread heartbeat([&] {
        uint64_t beats = 0;
        const auto period =
            std::chrono::milliseconds(std::max<uint32_t>(
                st.cfg.heartbeat_ms, 1));
        std::unique_lock<std::mutex> lock(hb_mu);
        while (!stop.load()) {
            if (hb_cv.wait_for(lock, period,
                               [&] { return stop.load(); }))
                break;
            HeartbeatMsg hb{opts.id, ++beats};
            std::string ignored;
            if (!send(MsgType::HEARTBEAT, encodeHeartbeat(hb),
                      &ignored))
                break; // Coordinator gone; the receive sees EOF.
        }
    });
    auto joinHeartbeat = [&] {
        {
            std::lock_guard<std::mutex> lock(hb_mu);
            stop.store(true);
        }
        hb_cv.notify_all();
        heartbeat.join();
    };

    // The main loop only receives frames; each ASSIGN runs on one of
    // the pool's worker_threads threads. A pool thread that cannot
    // send a RESULT marks the connection lost and shuts the socket
    // down, which wakes the blocking receive below.
    std::atomic<bool> lost{false};
    runner::Runner pool(st.cfg.worker_threads);
    int code = 1;
    for (;;) {
        if (!recvFrame(fd, "svc.worker.recv", frame, &err)) {
            if (!lost.exchange(true))
                std::fprintf(stderr, "dsmem_svc worker %u: %s\n",
                             opts.id, err.c_str());
            break;
        }
        if (frame.type == MsgType::SHUTDOWN) {
            code = 0;
            break;
        }
        if (frame.type != MsgType::ASSIGN)
            continue; // Unknown frame types are ignored, not fatal.
        AssignMsg assign;
        if (!decodeAssign(frame.payload, st.cfg.units, assign)) {
            std::fprintf(stderr,
                         "dsmem_svc worker %u: malformed assign\n",
                         opts.id);
            lost.store(true);
            break;
        }
        pool.submit([&, assign = std::move(assign)] {
            if (lost.load())
                return; // Nobody is left to take the results.
            for (const ResultMsg &result : runAssign(st, assign)) {
                std::string serr;
                if (!send(MsgType::RESULT, encodeResult(result), &serr)) {
                    if (!lost.exchange(true)) {
                        std::fprintf(stderr,
                                     "dsmem_svc worker %u: result: %s\n",
                                     opts.id, serr.c_str());
                        ::shutdown(fd, SHUT_RDWR);
                    }
                    return;
                }
            }
        });
    }
    // On SHUTDOWN every queued lease still runs and reports.
    pool.wait();
    if (lost.load())
        code = 1;

    joinHeartbeat();
    ::close(fd);
    return code;
}

} // namespace dsmem::svc
