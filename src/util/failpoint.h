#ifndef DSMEM_UTIL_FAILPOINT_H
#define DSMEM_UTIL_FAILPOINT_H

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "util/errors.h"

namespace dsmem::util {

/**
 * Deterministic fault injection for the I/O and execution layers.
 *
 * Every interesting failure boundary (bundle open/rename/remove,
 * byte-sink drain, byte-source refill, phase-1/phase-2 job bodies,
 * journal appends) carries a *named site*:
 *
 *     util::failpoint("trace_store.save");
 *
 * A site does nothing until armed — the unarmed fast path is a single
 * relaxed atomic load of one global counter, so instrumented hot
 * paths cost nothing in production. Sites are armed either
 * programmatically (armFailpoint / disarmAllFailpoints, used by
 * tests) or via the environment at process start:
 *
 *     DSMEM_FAILPOINTS=site:mode[:arg][:trigger],...
 *
 * Modes:
 *   throw        throw util::IoError (a transient, retryable fault)
 *   ec           report a std::error_code at failpointEc() sites
 *                (throws IoError when hit via plain failpoint())
 *   short-write  at failpointShortWrite() sites: half the buffered
 *                block lands, then the stream fails (throws at
 *                non-sink sites)
 *   delay        sleep @p arg milliseconds, then continue (watchdog
 *                and contention testing); arg is required
 *   kill         raise SIGKILL — the process dies exactly as if an
 *                external `kill -9` landed on this protocol boundary
 *                (multi-process chaos testing; never catchable)
 *
 * Trigger (optional last field): "once" fires on the first hit then
 * disarms; an integer K fires on every Kth hit (K=1, the default,
 * fires on every hit).
 *
 * Examples:
 *   trace_store.save:throw:once        first save fails, rest succeed
 *   byte_io.refill:throw:3             every 3rd block read fails
 *   campaign.phase2:delay:50           every timing job sleeps 50 ms
 *   trace_store.rename:ec              every rename reports an error
 *
 * Everything is deterministic: firing depends only on the per-site
 * hit count, never on wall clock or randomness, so a failing campaign
 * replays identically.
 *
 * `DSMEM_FAILPOINTS=list` is the discovery mode: the process prints
 * every registered site (the catalog below) to stdout and exits,
 * so CI jobs and the chaos driver can enumerate sites instead of
 * hard-coding names that drift.
 */
enum class FailpointMode : uint8_t {
    THROW,
    ERROR_CODE,
    SHORT_WRITE,
    DELAY,
    KILL,
};

/** One entry of the static failpoint site catalog. */
struct FailpointSite {
    const char *name;  ///< e.g. "trace_store.save"
    const char *where; ///< one-line description of the boundary
};

/**
 * Every failpoint site compiled into the tree. tests/test_failpoint
 * greps the source for `failpoint*("...")` literals and fails when
 * this catalog and the code disagree, so the list cannot drift.
 * Sites reached through a variable (the svc framing layer passes the
 * site name through sendFrame/recvFrame) are covered by the literal
 * at their call site.
 */
inline constexpr FailpointSite kFailpointSites[] = {
    {"bundle.generate", "phase-1 trace generation body"},
    {"byte_io.drain", "ByteSink block flush to the OS"},
    {"byte_io.refill", "ByteSource block read from a stream or file"},
    {"campaign.phase1", "campaign phase-1 job body"},
    {"campaign.phase2", "campaign phase-2 cell body"},
    {"dram.dispatch", "banked DRAM request dispatch"},
    {"dslp.read", "live-point checkpoint load"},
    {"dslp.write", "live-point checkpoint save"},
    {"journal.append", "journal record append + fsync"},
    {"journal.open", "journal open / replay / truncate"},
    {"svc.accept", "coordinator accept of a worker connection"},
    {"svc.connect", "worker connect to the coordinator socket"},
    {"svc.coord.recv", "coordinator frame receive"},
    {"svc.coord.send", "coordinator frame send"},
    {"svc.spawn", "coordinator fork/exec of a worker process"},
    {"svc.worker.recv", "worker frame receive"},
    {"svc.worker.send", "worker frame send"},
    {"trace_io.fetch", "file-backed trace chunk slice read + verify"},
    {"trace_io.load", "bundle deserialization"},
    {"trace_io.save", "bundle serialization"},
    {"trace_store.open_read", "store bundle open-for-read"},
    {"trace_store.remove", "store bundle remove"},
    {"trace_store.rename", "store tmp -> final atomic rename"},
    {"trace_store.save", "store bundle save"},
};

/** True when @p site names an entry of kFailpointSites. */
inline bool
isKnownFailpointSite(std::string_view site)
{
    for (const FailpointSite &s : kFailpointSites)
        if (site == s.name)
            return true;
    return false;
}

/** Dump the site catalog, one "name\twhere" line per site. */
inline void
printFailpointSites(std::FILE *out)
{
    for (const FailpointSite &s : kFailpointSites)
        std::fprintf(out, "%s\t%s\n", s.name, s.where);
}

struct FailpointSpec {
    std::string site;
    FailpointMode mode = FailpointMode::THROW;
    uint32_t arg = 0;   ///< delay: milliseconds. Others: unused.
    uint32_t every = 1; ///< Fire on every Kth hit.
    bool once = false;  ///< Disarm after the first firing.
};

namespace fp_detail {

struct Entry {
    FailpointSpec spec;
    uint64_t hits = 0;  ///< Times the site was evaluated while armed.
    bool spent = false; ///< once-entry that already fired.
};

/**
 * The unarmed fast-path gate: number of live (armed, not spent)
 * entries. Constant-initialized, so checking it never races with
 * static construction.
 */
inline std::atomic<int> g_armed{0};

struct Registry {
    std::mutex mu;
    std::vector<Entry> entries;

    static Registry &instance()
    {
        static Registry r;
        return r;
    }
};

/** What a fired site should do, decided under the registry lock. */
struct Action {
    FailpointMode mode = FailpointMode::THROW;
    uint32_t arg = 0;
    bool fire = false;
};

inline Action
evaluate(const char *site)
{
    Registry &reg = Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (Entry &e : reg.entries) {
        if (e.spent || e.spec.site != site)
            continue;
        ++e.hits;
        uint32_t every = e.spec.every == 0 ? 1 : e.spec.every;
        if (e.hits % every != 0)
            continue;
        if (e.spec.once) {
            e.spent = true;
            g_armed.fetch_sub(1, std::memory_order_relaxed);
        }
        return Action{e.spec.mode, e.spec.arg, true};
    }
    return Action{};
}

[[noreturn]] inline void
throwFault(const char *site)
{
    throw IoError(std::string("failpoint fired: ") + site);
}

/**
 * kill-mode firing: indistinguishable from an external `kill -9` at
 * this exact boundary. abort() is unreachable; it only satisfies
 * [[noreturn]] if SIGKILL were somehow blocked.
 */
[[noreturn]] inline void
killSelf()
{
    std::raise(SIGKILL);
    std::abort();
}

} // namespace fp_detail

/** True when any failpoint is armed (one relaxed load). */
inline bool
failpointsArmed()
{
    return fp_detail::g_armed.load(std::memory_order_relaxed) != 0;
}

/**
 * Generic site: throw (also for ec mode, which has no error_code
 * channel here) or delay. SHORT_WRITE entries are ignored at generic
 * sites — they only mean something to a sink.
 */
inline void
failpoint(const char *site)
{
    if (!failpointsArmed()) [[likely]]
        return;
    fp_detail::Action a = fp_detail::evaluate(site);
    if (!a.fire)
        return;
    switch (a.mode) {
      case FailpointMode::DELAY:
        std::this_thread::sleep_for(std::chrono::milliseconds(a.arg));
        return;
      case FailpointMode::SHORT_WRITE:
        return;
      case FailpointMode::KILL:
        fp_detail::killSelf();
      case FailpointMode::THROW:
      case FailpointMode::ERROR_CODE:
        fp_detail::throwFault(site);
    }
}

/**
 * Site that reports failure through a std::error_code (the
 * std::filesystem idiom). Returns true and sets @p ec when an ec-mode
 * entry fires; throw-mode entries still throw, delay still delays.
 */
inline bool
failpointEc(const char *site, std::error_code &ec)
{
    if (!failpointsArmed()) [[likely]]
        return false;
    fp_detail::Action a = fp_detail::evaluate(site);
    if (!a.fire)
        return false;
    switch (a.mode) {
      case FailpointMode::ERROR_CODE:
        ec = std::make_error_code(std::errc::io_error);
        return true;
      case FailpointMode::DELAY:
        std::this_thread::sleep_for(std::chrono::milliseconds(a.arg));
        return false;
      case FailpointMode::SHORT_WRITE:
        return false;
      case FailpointMode::KILL:
        fp_detail::killSelf();
      case FailpointMode::THROW:
        fp_detail::throwFault(site);
    }
    return false;
}

/**
 * Sink-drain site. Returns true when a short-write entry fires (the
 * caller writes a partial block and fails its stream); throw-mode
 * entries throw, delay delays.
 */
inline bool
failpointShortWrite(const char *site)
{
    if (!failpointsArmed()) [[likely]]
        return false;
    fp_detail::Action a = fp_detail::evaluate(site);
    if (!a.fire)
        return false;
    switch (a.mode) {
      case FailpointMode::SHORT_WRITE:
        return true;
      case FailpointMode::DELAY:
        std::this_thread::sleep_for(std::chrono::milliseconds(a.arg));
        return false;
      case FailpointMode::KILL:
        fp_detail::killSelf();
      case FailpointMode::THROW:
      case FailpointMode::ERROR_CODE:
        fp_detail::throwFault(site);
    }
    return false;
}

/** Arm one failpoint programmatically. */
inline void
armFailpoint(FailpointSpec spec)
{
    fp_detail::Registry &reg = fp_detail::Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.entries.push_back(fp_detail::Entry{std::move(spec), 0, false});
    fp_detail::g_armed.fetch_add(1, std::memory_order_relaxed);
}

/**
 * Parse one "site:mode[:arg][:trigger]" entry. Returns false (with a
 * diagnostic in @p err when non-null) on a malformed spec.
 */
inline bool
parseFailpointSpec(std::string_view text, FailpointSpec &out,
                   std::string *err = nullptr)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why + ": '" + std::string(text) + "'";
        return false;
    };

    std::vector<std::string> fields;
    size_t start = 0;
    while (true) {
        size_t colon = text.find(':', start);
        fields.emplace_back(text.substr(
            start, colon == std::string_view::npos ? colon
                                                   : colon - start));
        if (colon == std::string_view::npos)
            break;
        start = colon + 1;
    }
    if (fields.size() < 2 || fields[0].empty())
        return fail("failpoint spec needs site:mode");

    FailpointSpec spec;
    spec.site = fields[0];
    const std::string &mode = fields[1];
    size_t next = 2;
    if (mode == "throw") {
        spec.mode = FailpointMode::THROW;
    } else if (mode == "ec" || mode == "error_code") {
        spec.mode = FailpointMode::ERROR_CODE;
    } else if (mode == "short-write") {
        spec.mode = FailpointMode::SHORT_WRITE;
    } else if (mode == "kill") {
        spec.mode = FailpointMode::KILL;
    } else if (mode == "delay") {
        spec.mode = FailpointMode::DELAY;
        if (fields.size() < 3)
            return fail("delay needs a millisecond arg");
        char *end = nullptr;
        unsigned long ms = std::strtoul(fields[2].c_str(), &end, 10);
        if (end == fields[2].c_str() || *end != '\0' || ms > 60000)
            return fail("bad delay milliseconds");
        spec.arg = static_cast<uint32_t>(ms);
        next = 3;
    } else {
        return fail("unknown failpoint mode");
    }

    if (next < fields.size()) {
        const std::string &trig = fields[next];
        if (trig == "once") {
            spec.once = true;
        } else {
            char *end = nullptr;
            unsigned long k = std::strtoul(trig.c_str(), &end, 10);
            if (end == trig.c_str() || *end != '\0' || k == 0 ||
                k > 1u << 20)
                return fail("bad failpoint trigger");
            spec.every = static_cast<uint32_t>(k);
        }
        ++next;
    }
    if (next != fields.size())
        return fail("trailing failpoint fields");

    out = std::move(spec);
    return true;
}

/**
 * Arm a comma-separated spec list (the DSMEM_FAILPOINTS grammar).
 * Returns false on the first malformed entry; entries before it stay
 * armed. With @p require_known (the env-load path), sites absent
 * from kFailpointSites are rejected — tests arming synthetic sites
 * programmatically pass false.
 */
inline bool
armFailpoints(std::string_view list, std::string *err = nullptr,
              bool require_known = false)
{
    size_t start = 0;
    while (start <= list.size()) {
        size_t comma = list.find(',', start);
        std::string_view entry = list.substr(
            start,
            comma == std::string_view::npos ? comma : comma - start);
        if (!entry.empty()) {
            FailpointSpec spec;
            if (!parseFailpointSpec(entry, spec, err))
                return false;
            if (require_known && !isKnownFailpointSite(spec.site)) {
                if (err)
                    *err = "unknown failpoint site '" + spec.site +
                           "' (use DSMEM_FAILPOINTS=list)";
                return false;
            }
            armFailpoint(std::move(spec));
        }
        if (comma == std::string_view::npos)
            break;
        start = comma + 1;
    }
    return true;
}

/** Disarm every entry for @p site (spent once-entries included). */
inline void
disarmFailpoint(std::string_view site)
{
    fp_detail::Registry &reg = fp_detail::Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto it = reg.entries.begin();
    while (it != reg.entries.end()) {
        if (it->spec.site == site) {
            if (!it->spent)
                fp_detail::g_armed.fetch_sub(
                    1, std::memory_order_relaxed);
            it = reg.entries.erase(it);
        } else {
            ++it;
        }
    }
}

/** Remove every failpoint (test teardown). */
inline void
disarmAllFailpoints()
{
    fp_detail::Registry &reg = fp_detail::Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const fp_detail::Entry &e : reg.entries)
        if (!e.spent)
            fp_detail::g_armed.fetch_sub(1, std::memory_order_relaxed);
    reg.entries.clear();
}

/** Armed-time hit count across all entries for @p site. */
inline uint64_t
failpointHits(std::string_view site)
{
    fp_detail::Registry &reg = fp_detail::Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    uint64_t hits = 0;
    for (const fp_detail::Entry &e : reg.entries)
        if (e.spec.site == site)
            hits += e.hits;
    return hits;
}

namespace fp_detail {

/**
 * Environment activation: DSMEM_FAILPOINTS is parsed during static
 * initialization of any binary that links an instrumented TU, so
 * env-armed failpoints are live before main() runs.
 */
inline const bool g_env_loaded = [] {
    const char *env = std::getenv("DSMEM_FAILPOINTS");
    if (env != nullptr && *env != '\0') {
        if (std::string_view(env) == "list") {
            printFailpointSites(stdout);
            std::exit(0);
        }
        std::string err;
        if (!armFailpoints(env, &err, /*require_known=*/true))
            std::fprintf(stderr, "DSMEM_FAILPOINTS: %s\n",
                         err.c_str());
    }
    return true;
}();

} // namespace fp_detail

} // namespace dsmem::util

#endif // DSMEM_UTIL_FAILPOINT_H
