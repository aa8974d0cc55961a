#include "svc/coordinator.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/failpoint.h"
#include "util/sysinfo.h"

namespace dsmem::svc {

namespace {

uint64_t
nowMs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::string
selfExe()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "";
    buf[n] = '\0';
    return buf;
}

} // namespace

Coordinator::Coordinator(runner::Campaign &campaign,
                         ServiceOptions opts)
    : campaign_(campaign), opts_(std::move(opts))
{
    if (opts_.workers == 0)
        opts_.workers = 1;
    worker_threads_ = std::max(1u, util::hostCores() / opts_.workers);
    stats_.cells_by_worker.assign(opts_.workers, 0);
    stats_.deaths_by_worker.assign(opts_.workers, 0);
}

Coordinator::~Coordinator()
{
    for (Slot &slot : slots_) {
        if (slot.fd >= 0)
            ::close(slot.fd);
        if (slot.pid > 0) {
            ::kill(slot.pid, SIGKILL);
            ::waitpid(slot.pid, nullptr, 0);
        }
    }
    for (PendingConn &p : pending_)
        if (p.fd >= 0)
            ::close(p.fd);
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(socket_path_.c_str());
    }
}

bool
Coordinator::setupSocket(std::string *err)
{
    socket_path_ = opts_.socket_path;
    if (socket_path_.empty()) {
        static int counter = 0;
        socket_path_ = "/tmp/dsmem-svc." +
                       std::to_string(::getpid()) + "." +
                       std::to_string(++counter) + ".sock";
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path_.size() >= sizeof(addr.sun_path)) {
        *err = "socket path too long: " + socket_path_;
        return false;
    }
    std::memcpy(addr.sun_path, socket_path_.c_str(),
                socket_path_.size() + 1);
    ::unlink(socket_path_.c_str()); // Stale path from a crashed run.
    // Close-on-exec, like every accepted connection: a worker that
    // inherited the listen socket could connect to it after the
    // coordinator died and wait for a WELCOME forever, and one that
    // inherited a sibling's connection would keep that sibling from
    // ever seeing EOF.
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        *err = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_,
                 static_cast<int>(opts_.workers) + 8) != 0) {
        *err = std::string("bind/listen: ") + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    return true;
}

bool
Coordinator::spawnWorker(Slot &slot)
{
    try {
        util::failpoint("svc.spawn");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "svc: spawn of worker %u failed: %s\n",
                     slot.id, e.what());
        return false;
    }
    std::string exe =
        opts_.worker_exe.empty() ? selfExe() : opts_.worker_exe;
    if (exe.empty()) {
        std::fprintf(stderr,
                     "svc: cannot resolve worker executable\n");
        return false;
    }
    std::string id = std::to_string(slot.id);
    pid_t pid = ::fork();
    if (pid < 0) {
        std::fprintf(stderr, "svc: fork: %s\n", std::strerror(errno));
        return false;
    }
    if (pid == 0) {
        ::execl(exe.c_str(), exe.c_str(), "worker", "--socket",
                socket_path_.c_str(), "--id", id.c_str(),
                static_cast<char *>(nullptr));
        std::fprintf(stderr, "svc: exec %s: %s\n", exe.c_str(),
                     std::strerror(errno));
        ::_exit(127);
    }
    slot.pid = pid;
    slot.last_seen_ms = nowMs(); // Grace until HELLO arrives.
    if (opts_.print_workers) {
        std::printf("svc: worker %u pid %d\n", slot.id,
                    static_cast<int>(pid));
        std::fflush(stdout);
    }
    return true;
}

bool
Coordinator::prune(GroupRef &g) const
{
    // Settled rows leave the group; what is left still fuses (a
    // sub-family of a sweep family is a family) unless one row.
    std::erase_if(g.group.rows, [&](size_t s) {
        return done_.count({g.unit, s}) || failed_.count({g.unit, s});
    });
    g.group.fused = g.group.fused && g.group.rows.size() > 1;
    return !g.group.rows.empty();
}

void
Coordinator::requeue(GroupRef g)
{
    if (!prune(g))
        return;
    stats_.redispatched += g.group.rows.size();
    redispatch_.push_back(std::move(g));
}

void
Coordinator::retireSlot(Slot &slot)
{
    slot.retired = true;
    // The shard backlog outlives its slot: hand every unleased group
    // to the redispatch queue (stealing would also pick them up, but
    // a retired slot never gets a replacement to steal *for*).
    for (GroupRef &g : slot.queue)
        if (prune(g))
            redispatch_.push_back(std::move(g));
    slot.queue.clear();
}

void
Coordinator::workerDied(Slot &slot, const char *why)
{
    if (slot.fd >= 0) {
        ::close(slot.fd);
        slot.fd = -1;
    }
    slot.connected = false;
    if (slot.pid > 0) {
        ::kill(slot.pid, SIGKILL); // Idempotent; lease-expiry path.
        ::waitpid(slot.pid, nullptr, 0);
        slot.pid = -1;
    }
    for (auto &[seq, g] : slot.leases)
        requeue(std::move(g));
    slot.leases.clear();
    ++stats_.worker_deaths;
    if (slot.id < stats_.deaths_by_worker.size())
        ++stats_.deaths_by_worker[slot.id];
    if (opts_.print_workers) {
        std::printf("svc: worker %u died (%s)\n", slot.id, why);
        std::fflush(stdout);
    }
    if (slot.respawns < opts_.respawn_per_slot) {
        ++slot.respawns;
        if (spawnWorker(slot)) {
            ++stats_.respawns;
            return;
        }
    }
    retireSlot(slot);
}

bool
Coordinator::nextGroup(Slot &slot, GroupRef &out)
{
    // Own shard backlog first (trace locality), then orphans of dead
    // workers, then steal from the surviving backlog with the most
    // rows.
    while (!slot.queue.empty()) {
        out = std::move(slot.queue.front());
        slot.queue.pop_front();
        if (prune(out))
            return true;
    }
    while (!redispatch_.empty()) {
        out = std::move(redispatch_.front());
        redispatch_.pop_front();
        if (prune(out))
            return true;
    }
    // Backlog is measured in rows — the cells shardPlan balances by —
    // not in queue entries, which hold groups of 1 to #specs rows.
    Slot *victim = nullptr;
    size_t victim_rows = 0;
    for (Slot &other : slots_) {
        if (other.id == slot.id)
            continue;
        size_t rows = 0;
        for (const GroupRef &g : other.queue)
            rows += g.group.rows.size();
        if (rows > victim_rows) {
            victim = &other;
            victim_rows = rows;
        }
    }
    while (victim && !victim->queue.empty()) {
        // Steal from the tail: the head groups keep their trace
        // affinity with the victim.
        out = std::move(victim->queue.back());
        victim->queue.pop_back();
        if (prune(out)) {
            stats_.stolen += out.group.rows.size();
            return true;
        }
    }
    return false;
}

void
Coordinator::dispatchIdle()
{
    // Top every connected worker up to worker_threads_ leases. The
    // whole round's lease records go to the journal first, in one
    // write and one fsync, so a record never trails its ASSIGN.
    std::vector<std::pair<Slot *, GroupRef>> picks;
    std::vector<runner::JournalLease> records;
    for (Slot &slot : slots_) {
        if (!slot.connected)
            continue;
        GroupRef g;
        for (size_t held = slot.leases.size();
             held < worker_threads_ && nextGroup(slot, g); ++held) {
            for (size_t s : g.group.rows)
                records.push_back(
                    runner::JournalLease{g.unit, s, slot.id, epoch_});
            picks.emplace_back(&slot, std::move(g));
        }
    }
    if (picks.empty())
        return;
    campaign_.journal().appendLeases(records);
    for (auto &[slot, g] : picks) {
        if (!slot->connected) { // Its send failed earlier this round.
            requeue(std::move(g));
            continue;
        }
        AssignMsg assign;
        assign.unit = static_cast<uint32_t>(g.unit);
        assign.seq = ++seq_;
        for (size_t s : g.group.rows)
            assign.rows.push_back(static_cast<uint32_t>(s));
        std::string err;
        if (!sendFrame(slot->fd, "svc.coord.send", MsgType::ASSIGN,
                       encodeAssign(assign), &err)) {
            requeue(std::move(g));
            workerDied(*slot, "send failed");
            continue;
        }
        ++stats_.assigns;
        stats_.dispatched += g.group.rows.size();
        slot->leases.emplace(assign.seq, std::move(g));
    }
}

std::string
Coordinator::specLabel(const CellRef &cell) const
{
    if (cell.unit >= campaign_.size())
        return "";
    const std::vector<sim::ModelSpec> &specs =
        campaign_.unitSpecs(cell.unit);
    return cell.spec < specs.size() ? specs[cell.spec].label() : "";
}

void
Coordinator::settle(CellRef cell, bool failed)
{
    const bool fresh = failed ? failed_.insert(cell).second
                              : done_.insert(cell).second;
    if (fresh && remaining_ > 0)
        --remaining_;
}

void
Coordinator::handleResult(Slot &slot, const ResultMsg &msg)
{
    CellRef cell{msg.unit, msg.spec};
    auto lease = slot.leases.find(msg.seq);
    if (lease != slot.leases.end() && lease->second.unit == cell.unit) {
        std::erase(lease->second.group.rows, cell.spec);
        if (lease->second.group.rows.empty())
            slot.leases.erase(lease);
    }
    stats_.peak_rss_bytes =
        std::max(stats_.peak_rss_bytes, msg.peak_rss_bytes);
    stats_.view_bytes_resident =
        std::max(stats_.view_bytes_resident, msg.view_bytes_resident);
    if (msg.has_trace)
        campaign_.acceptRemoteTrace(msg.unit, msg.trace_origin,
                                    msg.trace_instructions,
                                    msg.trace_wall_ms, msg.gen_ms,
                                    msg.load_ms);
    if (!msg.ok) {
        // A worker-side permanent failure is deterministic (retries
        // already happened there); re-dispatching would just fail
        // again, so the cell is settled as failed — the campaign
        // completes degraded and exits 1, same as --jobs N would.
        campaign_.recordRemoteError(msg.unit, specLabel(cell), "svc",
                                    msg.error, true);
        settle(cell, true);
        ++stats_.failed_cells;
        return;
    }
    switch (campaign_.acceptRemoteRow(msg.unit, msg.spec, msg.result,
                                      msg.sampling, msg.wall_ms)) {
    case runner::Campaign::Accept::OK:
        settle(cell, false);
        ++stats_.results;
        if (slot.id < stats_.cells_by_worker.size())
            ++stats_.cells_by_worker[slot.id];
        break;
    case runner::Campaign::Accept::DUPLICATE:
        ++stats_.duplicates;
        break;
    case runner::Campaign::Accept::MISMATCH:
        campaign_.recordRemoteError(
            msg.unit, specLabel(cell), "svc.mismatch",
            "conflicting duplicate result for a deterministic cell",
            true);
        ++stats_.mismatches;
        break;
    case runner::Campaign::Accept::BAD_REF:
        campaign_.recordRemoteError(
            msg.unit, "", "svc",
            "result for a cell outside the declaration set", true);
        break;
    }
}

void
Coordinator::handleFrame(Slot &slot, const Frame &frame)
{
    slot.last_seen_ms = nowMs();
    switch (frame.type) {
    case MsgType::HEARTBEAT:
        ++stats_.heartbeats;
        break;
    case MsgType::RESULT: {
        ResultMsg msg;
        if (decodeResult(frame.payload, msg))
            handleResult(slot, msg);
        break;
    }
    default:
        break; // Unknown frames from a worker are ignored.
    }
}

void
Coordinator::acceptConnections()
{
    for (;;) {
        try {
            util::failpoint("svc.accept");
        } catch (const std::exception &e) {
            std::fprintf(stderr, "svc: accept: %s\n", e.what());
            return;
        }
        int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN on the non-blocking listen socket.
        }
        pending_.push_back(PendingConn{fd, {}});
    }
}

void
Coordinator::reapChildren()
{
    for (;;) {
        int status = 0;
        pid_t pid = ::waitpid(-1, &status, WNOHANG);
        if (pid <= 0)
            return;
        for (Slot &slot : slots_) {
            if (slot.pid == pid) {
                slot.pid = -1; // Reaped; workerDied must not wait.
                workerDied(slot, "process exited");
                break;
            }
        }
    }
}

void
Coordinator::checkLeases()
{
    const uint64_t now = nowMs();
    for (Slot &slot : slots_) {
        if (slot.retired || slot.pid <= 0)
            continue;
        if (now - slot.last_seen_ms > opts_.lease_ms)
            workerDied(slot, "lease expired");
    }
}

bool
Coordinator::poolAlive() const
{
    for (const Slot &slot : slots_)
        if (!slot.retired)
            return true;
    return false;
}

void
Coordinator::runInlineFallback()
{
    // Graceful degradation's last rung: every worker slot retired,
    // so the coordinator runs the remaining groups itself — the
    // orphans first, then every shard backlog in slot order.
    std::vector<GroupRef> rest(redispatch_.begin(), redispatch_.end());
    redispatch_.clear();
    for (Slot &slot : slots_) {
        rest.insert(rest.end(), slot.queue.begin(), slot.queue.end());
        slot.queue.clear();
    }
    for (GroupRef &g : rest) {
        if (!prune(g))
            continue;
        campaign_.runGroupInline(g);
        const std::vector<uint8_t> &done =
            campaign_.result(g.unit).row_done;
        for (size_t s : g.group.rows) {
            settle(CellRef{g.unit, s}, !done[s]);
            ++stats_.inline_cells;
        }
    }
}

void
Coordinator::shutdownPool()
{
    for (Slot &slot : slots_) {
        if (slot.connected && slot.fd >= 0) {
            std::string err;
            sendFrame(slot.fd, "svc.coord.send", MsgType::SHUTDOWN,
                      "", &err);
        }
    }
    // Give workers a moment to exit on their own, then force.
    const uint64_t deadline = nowMs() + 2000;
    for (Slot &slot : slots_) {
        while (slot.pid > 0) {
            int status = 0;
            pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
            if (r == slot.pid || r < 0) {
                slot.pid = -1;
                break;
            }
            if (nowMs() >= deadline) {
                ::kill(slot.pid, SIGKILL);
                ::waitpid(slot.pid, nullptr, 0);
                slot.pid = -1;
                break;
            }
            std::this_thread::yield();
        }
        if (slot.fd >= 0) {
            ::close(slot.fd);
            slot.fd = -1;
        }
        slot.connected = false;
    }
}

int
Coordinator::run()
{
    std::signal(SIGPIPE, SIG_IGN);

    if (!campaign_.prepare())
        return campaign_.ok() ? 0 : 1;

    // Shard the pending groups; each slot's backlog is its shard.
    runner::Campaign::ShardPlan plan =
        campaign_.shardPlan(opts_.workers, worker_threads_);
    remaining_ = plan.cells;
    if (remaining_ == 0) {
        campaign_.finish();
        return campaign_.ok() ? 0 : 1;
    }

    epoch_ = campaign_.resumedEpoch() + 1;
    campaign_.journal().appendEpoch(epoch_, opts_.workers);

    slots_.resize(opts_.workers);
    for (uint32_t k = 0; k < opts_.workers; ++k) {
        slots_[k].id = k;
        slots_[k].queue.assign(plan.shards[k].begin(),
                               plan.shards[k].end());
    }

    std::string err;
    if (!setupSocket(&err)) {
        std::fprintf(stderr, "svc: %s (running inline)\n",
                     err.c_str());
        runInlineFallback();
        campaign_.finish();
        return campaign_.ok() ? 0 : 1;
    }
    // Non-blocking accepts; worker fds stay blocking for writes and
    // are drained with MSG_DONTWAIT.
    int fl = ::fcntl(listen_fd_, F_GETFL, 0);
    ::fcntl(listen_fd_, F_SETFL, fl | O_NONBLOCK);

    // Fork the pool.
    for (Slot &slot : slots_)
        if (!spawnWorker(slot))
            retireSlot(slot);

    // The WELCOME every worker (and respawn) receives.
    {
        WelcomeMsg welcome;
        welcome.bench = campaign_.benchName();
        welcome.trace_dir = campaign_.options().trace_dir;
        welcome.signature = campaign_.signature();
        welcome.heartbeat_ms = opts_.heartbeat_ms;
        welcome.max_attempts = campaign_.options().max_attempts;
        welcome.backoff_base_ms = campaign_.options().backoff_base_ms;
        welcome.backoff_cap_ms = campaign_.options().backoff_cap_ms;
        welcome.stream_exec = static_cast<uint8_t>(
            campaign_.options().stream_exec);
        welcome.worker_threads = worker_threads_;
        welcome.plan = campaign_.options().sampling;
        for (size_t u = 0; u < campaign_.size(); ++u) {
            UnitDecl decl;
            decl.app = static_cast<uint32_t>(campaign_.unitApp(u));
            decl.mem = campaign_.unitMem(u);
            decl.small = campaign_.unitSmall(u) ? 1 : 0;
            decl.specs = campaign_.unitSpecs(u);
            welcome.units.push_back(std::move(decl));
        }
        welcome_ = encodeWelcome(welcome);
    }

    while (remaining_ > 0) {
        if (!poolAlive() && pending_.empty()) {
            runInlineFallback();
            break;
        }

        std::vector<pollfd> fds;
        fds.push_back(pollfd{listen_fd_, POLLIN, 0});
        for (PendingConn &p : pending_)
            fds.push_back(pollfd{p.fd, POLLIN, 0});
        for (Slot &slot : slots_)
            if (slot.connected)
                fds.push_back(pollfd{slot.fd, POLLIN, 0});
        int rc = ::poll(fds.data(),
                        static_cast<nfds_t>(fds.size()), 100);
        if (rc < 0 && errno != EINTR)
            break;

        acceptConnections();

        // Pending connections: wait for HELLO, bind to a slot.
        for (size_t i = 0; i < pending_.size();) {
            PendingConn &p = pending_[i];
            std::string derr;
            int st = drainSocket(p.fd, "svc.coord.recv", p.rx, &derr);
            Frame f;
            int got = p.rx.next(f, &derr);
            if (got == 1 && f.type == MsgType::HELLO) {
                HelloMsg hello;
                if (decodeHello(f.payload, hello) &&
                    hello.worker < slots_.size() &&
                    !slots_[hello.worker].connected &&
                    !slots_[hello.worker].retired) {
                    Slot &slot = slots_[hello.worker];
                    slot.fd = p.fd;
                    slot.connected = true;
                    slot.rx = std::move(p.rx);
                    slot.last_seen_ms = nowMs();
                    pending_.erase(pending_.begin() +
                                   static_cast<long>(i));
                    std::string serr;
                    if (!sendFrame(slot.fd, "svc.coord.send",
                                   MsgType::WELCOME, welcome_,
                                   &serr))
                        workerDied(slot, "welcome failed");
                    continue;
                }
                ::close(p.fd); // Bogus hello: drop the connection.
                pending_.erase(pending_.begin() +
                               static_cast<long>(i));
                continue;
            }
            if (st != 1 || got < 0) {
                ::close(p.fd);
                pending_.erase(pending_.begin() +
                               static_cast<long>(i));
                continue;
            }
            ++i;
        }

        // Connected workers: drain frames, then handle each.
        for (Slot &slot : slots_) {
            if (!slot.connected)
                continue;
            std::string derr;
            int st = drainSocket(slot.fd, "svc.coord.recv", slot.rx,
                                 &derr);
            Frame f;
            int got;
            while ((got = slot.rx.next(f, &derr)) == 1) {
                handleFrame(slot, f);
                if (!slot.connected)
                    break; // Died while handling (send failure).
            }
            if (slot.connected && (st != 1 || got < 0))
                workerDied(slot, st == 0 ? "connection closed"
                                         : "protocol error");
        }

        reapChildren();
        checkLeases();
        dispatchIdle();
    }

    shutdownPool();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(socket_path_.c_str());
    }

    campaign_.finish();
    return campaign_.ok() ? 0 : 1;
}

std::string
Coordinator::statsJson() const
{
    std::string s = "{";
    auto field = [&s](const char *k, uint64_t v, bool first = false) {
        if (!first)
            s += ",";
        s += "\"";
        s += k;
        s += "\":";
        s += std::to_string(v);
    };
    field("workers", opts_.workers, true);
    field("worker_threads", worker_threads_);
    field("assigns", stats_.assigns);
    field("dispatched", stats_.dispatched);
    field("results", stats_.results);
    field("duplicates", stats_.duplicates);
    field("mismatches", stats_.mismatches);
    field("redispatched", stats_.redispatched);
    field("stolen", stats_.stolen);
    field("worker_deaths", stats_.worker_deaths);
    field("respawns", stats_.respawns);
    field("inline_cells", stats_.inline_cells);
    field("heartbeats", stats_.heartbeats);
    field("failed_cells", stats_.failed_cells);
    field("peak_rss_bytes", stats_.peak_rss_bytes);
    field("view_bytes_resident", stats_.view_bytes_resident);
    s += ",\"stream_exec\":\"";
    s += sim::streamExecName(campaign_.options().stream_exec);
    s += "\"";
    s += ",\"per_worker\":[";
    for (size_t k = 0; k < stats_.cells_by_worker.size(); ++k) {
        if (k)
            s += ",";
        s += "{\"id\":" + std::to_string(k) +
             ",\"cells\":" + std::to_string(stats_.cells_by_worker[k]) +
             ",\"deaths\":" +
             std::to_string(stats_.deaths_by_worker[k]) + "}";
    }
    s += "]}";
    return s;
}

} // namespace dsmem::svc
