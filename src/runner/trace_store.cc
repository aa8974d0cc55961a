#include "runner/trace_store.h"

#include <cctype>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "trace/trace_io.h"
#include "util/byte_io.h"
#include "util/errors.h"
#include "util/failpoint.h"

namespace dsmem::runner {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

constexpr char kMagic[4] = {'D', 'S', 'M', 'B'};

void
putStats(util::ByteSink &sink, const trace::TraceStats &s)
{
    for (uint64_t v : {s.instructions, s.reads, s.writes, s.read_misses,
                       s.write_misses, s.branches, s.taken_branches,
                       s.locks, s.unlocks, s.wait_events, s.set_events,
                       s.barriers})
        sink.putU64(v);
}

trace::TraceStats
getStats(util::ByteSource &src)
{
    trace::TraceStats s;
    for (uint64_t *f : {&s.instructions, &s.reads, &s.writes,
                        &s.read_misses, &s.write_misses, &s.branches,
                        &s.taken_branches, &s.locks, &s.unlocks,
                        &s.wait_events, &s.set_events, &s.barriers})
        *f = src.readU64();
    return s;
}

void
putCacheStats(util::ByteSink &sink, const memsys::CacheStats &s)
{
    for (uint64_t v : {s.reads, s.writes, s.read_misses, s.write_misses,
                       s.invalidations_received, s.writebacks,
                       s.contention_cycles})
        sink.putU64(v);
}

memsys::CacheStats
getCacheStats(util::ByteSource &src)
{
    memsys::CacheStats s;
    for (uint64_t *f : {&s.reads, &s.writes, &s.read_misses,
                        &s.write_misses, &s.invalidations_received,
                        &s.writebacks, &s.contention_cycles})
        *f = src.readU64();
    return s;
}

void
putThreadStats(util::ByteSink &sink, const mp::ThreadStats &s)
{
    for (uint64_t v : {s.instructions, s.reads, s.writes, s.read_misses,
                       s.write_misses, s.branches, s.locks, s.unlocks,
                       s.barriers, s.wait_events, s.set_events,
                       s.sync_wait_cycles, s.sync_transfer_cycles})
        sink.putU64(v);
}

mp::ThreadStats
getThreadStats(util::ByteSource &src)
{
    mp::ThreadStats s;
    for (uint64_t *f : {&s.instructions, &s.reads, &s.writes,
                        &s.read_misses, &s.write_misses, &s.branches,
                        &s.locks, &s.unlocks, &s.barriers,
                        &s.wait_events, &s.set_events,
                        &s.sync_wait_cycles, &s.sync_transfer_cycles})
        *f = src.readU64();
    return s;
}

void
putDramStats(util::ByteSink &sink, const memsys::DramAccessStats &s)
{
    for (uint64_t v : {s.requests, s.row_hits, s.row_misses,
                       s.row_conflicts, s.queue_cycles,
                       s.bus_wait_cycles})
        sink.putU64(v);
}

memsys::DramAccessStats
getDramStats(util::ByteSource &src)
{
    memsys::DramAccessStats s;
    for (uint64_t *f : {&s.requests, &s.row_hits, &s.row_misses,
                        &s.row_conflicts, &s.queue_cycles,
                        &s.bus_wait_cycles})
        *f = src.readU64();
    return s;
}

void
putDramSummary(util::ByteSink &sink, const memsys::DramSummary &d)
{
    sink.putU32(static_cast<uint32_t>(d.banks.size()));
    for (const memsys::DramBankSummary &b : d.banks) {
        sink.putU64(b.requests);
        sink.putU64(b.busy_cycles);
        sink.putU64(b.row_hits);
    }
}

memsys::DramSummary
getDramSummary(util::ByteSource &src)
{
    uint32_t n = src.readU32();
    // DramConfig::valid caps banks at 1024; anything larger is a
    // corrupt length field, not a bigger machine.
    if (n > 1024)
        throw util::FormatError("implausible DRAM bank count " +
                                std::to_string(n));
    memsys::DramSummary d;
    d.banks.resize(n);
    for (memsys::DramBankSummary &b : d.banks) {
        b.requests = src.readU64();
        b.busy_cycles = src.readU64();
        b.row_hits = src.readU64();
    }
    return d;
}

/** Shared preamble of both readers: magic, then the version check. */
uint32_t
readBundleHeader(util::ByteSource &src)
{
    char magic[4];
    src.read(magic, 4);
    if (std::memcmp(magic, kMagic, 4) != 0)
        throw util::FormatError("not a dsmem bundle file");
    uint32_t version = src.readU32();
    if (version != kBundleFormatVersion &&
        version != kBundleFormatVersionDram) {
        throw util::FormatError("unsupported bundle format version " +
                                 std::to_string(version));
    }
    return version;
}

/**
 * Decode the hashed region's fixed fields (everything before the
 * embedded trace). v3 appends the DRAM accounting block to v2's
 * layout after the `verified` byte.
 */
void
readBundleFields(util::ByteSource &src, sim::TraceBundle &bundle,
                 uint32_t version)
{
    bundle.stats = getStats(src);
    bundle.cache0 = getCacheStats(src);
    bundle.thread0 = getThreadStats(src);
    bundle.mp_cycles = src.readU64();
    bundle.verified = src.readByte() != 0;
    if (version >= kBundleFormatVersionDram) {
        bundle.cache0.dram = getDramStats(src);
        bundle.dram = getDramSummary(src);
    }
}

/** The checksum trails the hashed region it covers. */
void
checkTrailer(util::ByteSource &src)
{
    uint64_t got = src.hashValue();
    uint64_t want = src.readU64();
    if (got != want)
        throw util::FormatError("bundle checksum mismatch");
    if (!src.atEof())
        throw util::FormatError("bundle payload size mismatch");
}

// Keying tripwire: the file name, the campaign signature and the svc
// unit codec encode MemoryConfig *memberwise*. If this assert fires,
// a field was added to MemoryConfig/DramConfig — extend
// TraceStore::fileName (and Campaign::signature, putMemoryConfig) to
// include it, then update the expected size.
// Silently compiling on would alias bundles across distinct configs.
static_assert(sizeof(memsys::DramConfig) == 36,
              "DramConfig changed: update TraceStore::fileName + "
              "Campaign::signature, then this size");
static_assert(sizeof(memsys::MemoryConfig) == 56,
              "MemoryConfig changed: update TraceStore::fileName + "
              "Campaign::signature, then this size");

} // namespace

uint32_t
bundleVersionFor(const memsys::MemoryConfig &mem)
{
    return mem.dram.enabled() ? kBundleFormatVersionDram
                              : kBundleFormatVersion;
}

namespace {

/**
 * The one bundle writer: @p bundle's stats fields (TraceBundle and
 * ViewBundle name them alike) around @p trace, either trace shape.
 */
template <typename Bundle, typename Trace>
void
writeBundle(const Bundle &bundle, const Trace &trace, std::ostream &os)
{
    // v3 only when there is DRAM accounting to carry; the common
    // (dram-off) case writes the seed's v2 bytes exactly.
    const bool dram = !bundle.dram.banks.empty();
    util::ByteSink sink(os);
    sink.put(kMagic, 4);
    sink.putU32(dram ? kBundleFormatVersionDram : kBundleFormatVersion);

    sink.beginHash();
    putStats(sink, bundle.stats);
    putCacheStats(sink, bundle.cache0);
    putThreadStats(sink, bundle.thread0);
    sink.putU64(bundle.mp_cycles);
    sink.putByte(bundle.verified ? 1 : 0);
    if (dram) {
        putDramStats(sink, bundle.cache0.dram);
        putDramSummary(sink, bundle.dram);
    }
    trace::saveTrace(trace, sink);

    sink.putU64(sink.hashValue());
    sink.flush();
}

} // namespace

void
saveBundle(const sim::TraceBundle &bundle, std::ostream &os)
{
    writeBundle(bundle, bundle.trace, os);
}

void
saveBundle(const sim::ViewBundle &bundle, std::ostream &os)
{
    if (bundle.chunked)
        writeBundle(bundle, *bundle.chunked, os);
    else
        writeBundle(bundle, *bundle.view, os);
}

sim::TraceBundle
loadBundle(std::istream &is)
{
    util::ByteSource src(is);
    uint32_t version = readBundleHeader(src);

    sim::TraceBundle bundle;
    src.beginHash();
    readBundleFields(src, bundle, version);
    bundle.trace = trace::loadTrace(src);
    checkTrailer(src);
    return bundle;
}

sim::ViewBundle
loadBundleView(std::istream &is, sim::StreamExec stream_exec)
{
    util::ByteSource src(is);
    uint32_t version = readBundleHeader(src);

    sim::ViewBundle vb;
    sim::TraceBundle fields;
    src.beginHash();
    readBundleFields(src, fields, version);

    // The stats land before the embedded trace, so the residency
    // decision can size the flat view without peeking at the trace
    // section. Sync entries (locks, events, barriers) join
    // stats.instructions to cover every trace record; they are a
    // rounding error against the threshold either way.
    uint64_t entries = fields.stats.instructions + fields.stats.locks +
        fields.stats.unlocks + fields.stats.wait_events +
        fields.stats.set_events + fields.stats.barriers;
    if (sim::shouldStream(static_cast<size_t>(entries), stream_exec))
        vb.chunked = trace::loadTraceChunked(src);
    else
        vb.view = trace::loadTraceView(src);
    checkTrailer(src);
    vb.stats = fields.stats;
    vb.cache0 = fields.cache0;
    vb.thread0 = fields.thread0;
    vb.mp_cycles = fields.mp_cycles;
    vb.verified = fields.verified;
    vb.dram = std::move(fields.dram);
    return vb;
}

TraceStore::TraceStore(std::string dir, sim::StreamExec stream_exec)
    : dir_(std::move(dir)), stream_exec_(stream_exec)
{
#if defined(__GLIBC__)
    // Pinned, glibc's mmap threshold no longer grows as traces are
    // freed: a released trace's columns leave the process instead of
    // leaving holes in whichever worker's arena happened to load it.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

std::string
TraceStore::fileName(sim::AppId id, const memsys::MemoryConfig &mem,
                     bool small)
{
    std::string app(sim::appName(id));
    for (char &c : app)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));

    std::ostringstream name;
    name << app << (small ? "_small" : "_full") << "_h"
         << mem.hit_latency << "_m" << mem.miss_latency << "_"
         << (mem.protocol == memsys::Protocol::MESI ? "mesi" : "msi")
         << "_b" << mem.banks << "_o" << mem.bank_occupancy;
    // The DRAM block joins the name only when the model is on, so
    // every pre-existing (dram-off) file keeps its exact seed name.
    if (mem.dram.enabled()) {
        const memsys::DramConfig &d = mem.dram;
        name << "_d" << d.banks << "r" << d.row_bytes << "s"
             << memsys::schedPolicyName(d.sched) << "t" << d.t_rcd
             << "-" << d.t_rp << "-" << d.t_cas << "-" << d.bus_cycles
             << "-" << d.base_latency << "c" << d.batch_cap;
    }
    name << "_v" << bundleVersionFor(mem) << "t"
         << trace::kTraceFormatVersion << ".dsmb";
    return name.str();
}

std::string
TraceStore::pathFor(sim::AppId id, const memsys::MemoryConfig &mem,
                    bool small) const
{
    if (!enabled())
        return "";
    return (fs::path(dir_) / fileName(id, mem, small)).string();
}

void
TraceStore::note(const char *site, const std::string &message,
                 uint64_t StoreStats::*counter)
{
    bump(counter);
    if (on_error_)
        on_error_(site, message);
}

void
TraceStore::bump(uint64_t StoreStats::*counter)
{
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++(stats_.*counter);
}

bool
TraceStore::removeFile(const fs::path &path, const char *site)
{
    std::error_code ec;
    if (!util::failpointEc("trace_store.remove", ec))
        fs::remove(path, ec);
    if (ec) {
        note(site, "remove " + path.string() + ": " + ec.message(),
             &StoreStats::remove_errors);
        return false;
    }
    return true;
}

bool
TraceStore::renameFile(const fs::path &from, const fs::path &to,
                       const char *site)
{
    std::error_code ec;
    if (!util::failpointEc("trace_store.rename", ec))
        fs::rename(from, to, ec);
    if (ec) {
        note(site,
             "rename " + from.string() + " -> " + to.string() + ": " +
                 ec.message(),
             &StoreStats::rename_errors);
        return false;
    }
    return true;
}

void
TraceStore::quarantine(const fs::path &path)
{
    // Count existing corpses for this name; past the cap a repeatedly
    // corrupted file is deleted instead of archived, so a flaky disk
    // cannot fill itself with .corrupt files.
    const std::string stem = path.filename().string() + ".corrupt.";
    int corpses = 0;
    std::error_code ec;
    for (const auto &entry :
         fs::directory_iterator(path.parent_path(), ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(stem, 0) == 0)
            ++corpses;
    }
    if (corpses >= kMaxQuarantinePerName) {
        removeFile(path, "trace_store.quarantine");
        return;
    }
    // Timestamp only names the corpse for post-mortem ordering; it
    // never feeds back into results, so wall clock is fine here.
    auto ts = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count();
    fs::path corpse = path;
    corpse += ".corrupt." + std::to_string(ts);
    if (renameFile(path, corpse, "trace_store.quarantine"))
        bump(&StoreStats::quarantined);
    else
        removeFile(path, "trace_store.quarantine");
}

void
TraceStore::readFile(const std::string &path,
                     const std::function<void(std::istream &)> &load)
{
    std::error_code ec;
    if (path.empty() || !fs::exists(path, ec))
        return;
    bump(&StoreStats::loads);
    try {
        std::ifstream is(path, std::ios::binary);
        if (!is)
            return;
        load(is);
        bump(&StoreStats::load_hits);
    } catch (const util::IoError &) {
        // Transient read fault: rethrow so the campaign's retry policy
        // can re-attempt; the on-disk file is presumed intact.
        bump(&StoreStats::io_errors);
        throw;
    } catch (const std::exception &e) {
        // Corrupt, truncated, or stale-format file: quarantine so the
        // regenerated file replaces it and the corpse stays around
        // for post-mortem.
        note("trace_store.load", path + ": " + e.what(),
             &StoreStats::format_errors);
        quarantine(path);
    }
}

void
TraceStore::writeFile(const std::string &path, const char *site,
                      const std::function<void(std::ostream &)> &save)
{
    if (path.empty())
        return;
    bump(&StoreStats::stores);
    std::error_code ec;
    fs::create_directories(dir_, ec);
    fs::path tmp = path;
    tmp += ".tmp" + std::to_string(::getpid());
    try {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            note(site, "cannot open " + tmp.string(),
                 &StoreStats::store_errors);
            return;
        }
        save(os);
        os.close();
        if (!os) {
            note(site, "write failed: " + tmp.string(),
                 &StoreStats::store_errors);
            removeFile(tmp, site);
            return;
        }
        if (!renameFile(tmp, path, site)) {
            bump(&StoreStats::store_errors);
            removeFile(tmp, site);
        }
    } catch (const std::exception &e) {
        note(site, tmp.string() + ": " + e.what(),
             &StoreStats::store_errors);
        removeFile(tmp, site);
    }
}

std::optional<sim::ViewBundle>
TraceStore::loadView(sim::AppId id, const memsys::MemoryConfig &mem,
                     bool small)
{
    std::optional<sim::ViewBundle> vb;
    readFile(pathFor(id, mem, small), [&](std::istream &is) {
        util::failpoint("trace_store.open_read");
        vb = loadBundleView(is, stream_exec_);
    });
    return vb;
}

namespace {

template <typename Bundle>
std::function<void(std::ostream &)>
bundleWriter(const Bundle &bundle)
{
    return [&bundle](std::ostream &os) {
        util::failpoint("trace_store.save");
        saveBundle(bundle, os);
    };
}

} // namespace

void
TraceStore::store(sim::AppId id, const memsys::MemoryConfig &mem,
                  bool small, const sim::ViewBundle &bundle)
{
    writeFile(pathFor(id, mem, small), "trace_store.save",
              bundleWriter(bundle));
}

void
TraceStore::store(sim::AppId id, const memsys::MemoryConfig &mem,
                  bool small, const sim::TraceBundle &bundle)
{
    writeFile(pathFor(id, mem, small), "trace_store.save",
              bundleWriter(bundle));
}

const sim::ViewBundle &
TraceStore::getView(sim::AppId id, const memsys::MemoryConfig &mem,
                    bool small, sim::TraceOrigin *origin,
                    sim::TraceTiming *timing)
{
    Key key{id, mem, small};

    std::unique_lock<std::mutex> lock(memo_mu_);
    Entry &entry = memo_[key]; // Map nodes are address-stable.
    for (;;) {
        // A released bundle has no columns: reload them below.
        if (entry.bundle && (entry.bundle->view || entry.bundle->chunked)) {
            if (origin)
                *origin = sim::TraceOrigin::MEMORY;
            if (timing)
                *timing = {};
            return *entry.bundle;
        }
        if (!entry.busy)
            break;
        memo_cv_.wait(lock);
    }

    // We own production for this key. Drop the lock so other keys
    // proceed in parallel; busy keeps same-key callers parked.
    entry.busy = true;
    lock.unlock();

    sim::TraceOrigin from = sim::TraceOrigin::GENERATED;
    sim::TraceTiming took;
    std::optional<sim::ViewBundle> vbundle;
    try {
        Clock::time_point t0 = Clock::now();
        vbundle = loadView(id, mem, small);
        if (vbundle) {
            took.load_ms = msSince(t0);
            from = sim::TraceOrigin::DISK;
        } else {
            t0 = Clock::now();
            vbundle = sim::generateView(id, mem, small);
            took.gen_ms = msSince(t0);
            store(id, mem, small, *vbundle);
            sim::applyResidency(*vbundle, stream_exec_);
        }
    } catch (...) {
        // Hand production back before propagating, or every same-key
        // caller parked on busy would wait forever.
        lock.lock();
        entry.busy = false;
        memo_cv_.notify_all();
        throw;
    }

    lock.lock();
    if (entry.bundle) {
        // A released key reloads into the same bundle, so pointers
        // taken before the release (a campaign's UnitResult::bundle)
        // stay valid; its stats are the reloaded bundle's.
        entry.bundle->view = std::move(vbundle->view);
        entry.bundle->chunked = std::move(vbundle->chunked);
    } else {
        entry.bundle =
            std::make_unique<sim::ViewBundle>(std::move(*vbundle));
    }
    entry.busy = false;
    memo_cv_.notify_all();
    if (origin)
        *origin = from;
    if (timing)
        *timing = took;
    return *entry.bundle;
}

void
TraceStore::release(sim::AppId id, const memsys::MemoryConfig &mem,
                    bool small)
{
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = memo_.find(Key{id, mem, small});
    if (it == memo_.end() || !it->second.bundle)
        return;
    it->second.bundle->view.reset();
    it->second.bundle->chunked.reset();
}

std::string
TraceStore::livePointFileName(sim::AppId id,
                              const memsys::MemoryConfig &mem,
                              bool small, const sim::SamplingPlan &plan)
{
    // Stem on the bundle name (minus its .dsmb extension) so the live
    // points sort next to the trace they were warmed from, then key
    // every plan parameter: period/seed feed the offset hash and
    // warmup/detailed trim the tail windows, so all four change the
    // point list.
    std::string stem = fileName(id, mem, small);
    stem.resize(stem.size() - 5); // strip ".dsmb"
    std::ostringstream name;
    name << stem << "_p" << plan.period << "w" << plan.warmup << "d"
         << plan.detailed << "s" << plan.seed << "_lp1.dslp";
    return name.str();
}

std::string
TraceStore::livePointPathFor(sim::AppId id,
                             const memsys::MemoryConfig &mem,
                             bool small,
                             const sim::SamplingPlan &plan) const
{
    if (!enabled())
        return "";
    return (fs::path(dir_) / livePointFileName(id, mem, small, plan))
        .string();
}

std::shared_ptr<const sim::LivePointSet>
TraceStore::livePoints(sim::AppId id, const memsys::MemoryConfig &mem,
                       bool small, const sim::SamplingPlan &plan,
                       const trace::TraceView &view)
{
    const std::string path = livePointPathFor(id, mem, small, plan);
    std::optional<sim::LivePointSet> cached;
    readFile(path, [&](std::istream &is) {
        util::failpoint("dslp.read");
        sim::LivePointSet set = sim::loadLivePoints(is);
        // The name keys the plan, but the file's own header is what
        // was actually warmed; a disagreement is a corrupt or
        // mis-filed stream, not a cache hit.
        if (set.period != plan.period || set.seed != plan.seed)
            throw util::FormatError(
                "live-point plan fields do not match the file name");
        cached = std::move(set);
    });
    if (cached && cached->instructions == view.size() &&
        cached->offset == plan.offsetFor(view.name(), view.size()))
        return std::make_shared<const sim::LivePointSet>(
            std::move(*cached));

    auto lp = std::make_shared<const sim::LivePointSet>(
        sim::computeLivePoints(view, plan));
    writeFile(path, "dslp.write", [&](std::ostream &os) {
        util::failpoint("dslp.write");
        sim::saveLivePoints(*lp, os);
    });
    return lp;
}

StoreGcStats
TraceStore::gc(const StoreGcOptions &opts)
{
    StoreGcStats g;
    if (!enabled())
        return g;

    std::error_code ec;
    fs::directory_iterator it(dir_, ec);
    if (ec) {
        ++g.errors;
        return g;
    }

    auto kept = [&](const std::string &name) {
        for (const std::string &k : opts.keep)
            if (k == name)
                return true;
        return false;
    };
    // GC decisions use wall-clock ages only to choose *which garbage
    // to drop* — nothing here ever feeds back into results.
    const auto fs_now = fs::file_time_type::clock::now();
    auto ageSeconds = [&](const fs::path &p) -> int64_t {
        std::error_code mec;
        auto mtime = fs::last_write_time(p, mec);
        if (mec)
            return -1;
        return std::chrono::duration_cast<std::chrono::seconds>(
                   fs_now - mtime)
            .count();
    };
    auto prune = [&](const fs::path &p, uint64_t StoreGcStats::*ctr) {
        std::error_code rec;
        if (fs::remove(p, rec) && !rec)
            ++(g.*ctr);
        else
            ++g.errors;
    };

    // The current-format suffixes; a .dsmb/.dslp name without one can
    // never be opened by this build again (resolve() probes only the
    // current name), so it is stale by construction.
    const std::string tver = std::to_string(trace::kTraceFormatVersion);
    const std::string cur_v2 =
        "_v" + std::to_string(kBundleFormatVersion) + "t" + tver +
        ".dsmb";
    const std::string cur_v3 =
        "_v" + std::to_string(kBundleFormatVersionDram) + "t" + tver +
        ".dsmb";
    auto endsWith = [](const std::string &s, const std::string &suf) {
        return s.size() >= suf.size() &&
               s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
    };

    // Corpse census first: count-based pruning keeps the *newest*
    // max_corrupt_per_name per base name, which needs the full group.
    std::vector<std::pair<uint64_t, fs::path>> corpses; // ts, path
    std::vector<std::string> corpse_base;

    for (const fs::directory_entry &entry : it) {
        std::error_code tec;
        if (!entry.is_regular_file(tec) || tec)
            continue;
        ++g.scanned;
        const std::string name = entry.path().filename().string();
        if (kept(name)) {
            ++g.kept;
            continue;
        }

        size_t cpos = name.find(".corrupt.");
        if (cpos != std::string::npos) {
            // quarantine() suffixes a microsecond wall-clock stamp;
            // an unparsable stamp sorts oldest (ts 0) and goes first.
            uint64_t ts = std::strtoull(
                name.c_str() + cpos + std::strlen(".corrupt."),
                nullptr, 10);
            corpses.emplace_back(ts, entry.path());
            corpse_base.push_back(name.substr(0, cpos));
            continue;
        }
        if (name.find(".tmp") != std::string::npos) {
            int64_t age = ageSeconds(entry.path());
            if (age < 0)
                ++g.errors;
            else if (age >= static_cast<int64_t>(opts.tmp_age_s))
                prune(entry.path(), &StoreGcStats::removed_tmp);
            continue;
        }
        const bool dsmb = endsWith(name, ".dsmb");
        const bool dslp = endsWith(name, ".dslp");
        if (!dsmb && !dslp)
            continue; // Not a store file; never touch it.
        const bool current = dsmb
            ? (endsWith(name, cur_v2) || endsWith(name, cur_v3))
            : endsWith(name, "_lp1.dslp");
        if (!current) {
            prune(entry.path(), &StoreGcStats::removed_stale);
            continue;
        }
        int64_t age = ageSeconds(entry.path());
        if (age < 0)
            ++g.errors;
        else if (age >= static_cast<int64_t>(opts.max_age_s))
            prune(entry.path(), &StoreGcStats::removed_stale);
    }

    // Per-base count + age pruning of quarantine corpses.
    const uint64_t now_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    for (size_t i = 0; i < corpses.size(); ++i) {
        // Rank within its base-name group: newer corpses first.
        int newer = 0;
        for (size_t j = 0; j < corpses.size(); ++j)
            if (j != i && corpse_base[j] == corpse_base[i] &&
                (corpses[j].first > corpses[i].first ||
                 (corpses[j].first == corpses[i].first && j < i)))
                ++newer;
        const uint64_t age_s =
            corpses[i].first < now_us
                ? (now_us - corpses[i].first) / 1000000
                : 0;
        if (newer >= opts.max_corrupt_per_name ||
            age_s >= opts.max_age_s)
            prune(corpses[i].second, &StoreGcStats::removed_corrupt);
    }
    return g;
}

} // namespace dsmem::runner
