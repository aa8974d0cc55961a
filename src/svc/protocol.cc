#include "svc/protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "util/byte_io.h"
#include "util/failpoint.h"

namespace dsmem::svc {

namespace {

uint64_t payloadHash(const std::string &p)
{
    return util::fnv1aUpdate(util::kFnvOffset, p.data(), p.size());
}

/** Arm the caller's failpoint site; false (with err) when it fires. */
bool hitFailpoint(const char *site, std::string *err)
{
    try {
        util::failpoint(site);
    } catch (const std::exception &e) {
        if (err)
            *err = std::string(site) + ": " + e.what();
        return false;
    }
    return true;
}

bool sendAll(int fd, const char *data, size_t n, std::string *err)
{
    size_t off = 0;
    while (off < n) {
        ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = std::string("send: ") + std::strerror(errno);
            return false;
        }
        off += static_cast<size_t>(w);
    }
    return true;
}

/** Blocking read of exactly @p n bytes; false on EOF/error. */
bool recvAll(int fd, char *data, size_t n, std::string *err)
{
    size_t off = 0;
    while (off < n) {
        ssize_t r = ::recv(fd, data + off, n - off, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = std::string("recv: ") + std::strerror(errno);
            return false;
        }
        if (r == 0) {
            if (err)
                *err = "recv: eof";
            return false;
        }
        off += static_cast<size_t>(r);
    }
    return true;
}

uint32_t peekU32(const char *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

uint64_t peekU64(const char *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

constexpr size_t kHeaderBytes = 12; // magic + type + len

/**
 * The checks both frame readers apply to a received frame: the magic
 * and the size cap on the header @p hdr and, once the payload is in
 * (@p payload non-null), its FNV trailer @p sum. False with a
 * diagnostic in @p err when the frame is a protocol violation.
 */
bool checkFrame(const char *hdr, const std::string *payload,
                const char *sum, std::string *err)
{
    const char *why = nullptr;
    if (peekU32(hdr) != kProtocolMagic)
        why = "frame: bad magic";
    else if (peekU32(hdr + 8) > kMaxFrameBytes)
        why = "frame: oversized";
    else if (payload && peekU64(sum) != payloadHash(*payload))
        why = "frame: payload checksum mismatch";
    if (why && err)
        *err = why;
    return why == nullptr;
}

} // namespace

void WireOut::f64(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

uint8_t WireIn::u8()
{
    if (!ok || pos + 1 > buf.size()) {
        ok = false;
        return 0;
    }
    return static_cast<uint8_t>(buf[pos++]);
}

uint32_t WireIn::u32()
{
    if (!ok || pos + 4 > buf.size()) {
        ok = false;
        return 0;
    }
    uint32_t v = peekU32(buf.data() + pos);
    pos += 4;
    return v;
}

uint64_t WireIn::u64()
{
    if (!ok || pos + 8 > buf.size()) {
        ok = false;
        return 0;
    }
    uint64_t v = peekU64(buf.data() + pos);
    pos += 8;
    return v;
}

double WireIn::f64()
{
    uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string WireIn::str()
{
    uint32_t n = u32();
    if (!ok || n > buf.size() - pos) {
        ok = false;
        return {};
    }
    std::string s = buf.substr(pos, n);
    pos += n;
    return s;
}

bool sendFrame(int fd, const char *site, MsgType type,
               const std::string &payload, std::string *err)
{
    if (!hitFailpoint(site, err))
        return false;
    if (payload.size() > kMaxFrameBytes) {
        if (err)
            *err = "sendFrame: oversized payload";
        return false;
    }
    WireOut w;
    w.u32(kProtocolMagic);
    w.u32(static_cast<uint32_t>(type));
    w.u32(static_cast<uint32_t>(payload.size()));
    w.buf.append(payload);
    w.u64(payloadHash(payload));
    return sendAll(fd, w.buf.data(), w.buf.size(), err);
}

bool recvFrame(int fd, const char *site, Frame &out, std::string *err)
{
    if (!hitFailpoint(site, err))
        return false;
    char hdr[kHeaderBytes];
    if (!recvAll(fd, hdr, sizeof(hdr), err) ||
        !checkFrame(hdr, nullptr, nullptr, err))
        return false;
    std::string payload(peekU32(hdr + 8), '\0');
    char sum[8];
    if ((!payload.empty() &&
         !recvAll(fd, payload.data(), payload.size(), err)) ||
        !recvAll(fd, sum, sizeof(sum), err) ||
        !checkFrame(hdr, &payload, sum, err))
        return false;
    out.type = static_cast<MsgType>(peekU32(hdr + 4));
    out.payload = std::move(payload);
    return true;
}

int FrameReader::next(Frame &out, std::string *err)
{
    if (buf_.size() < kHeaderBytes)
        return 0;
    if (!checkFrame(buf_.data(), nullptr, nullptr, err))
        return -1;
    uint32_t len = peekU32(buf_.data() + 8);
    size_t total = kHeaderBytes + len + 8;
    if (buf_.size() < total)
        return 0;
    std::string payload = buf_.substr(kHeaderBytes, len);
    if (!checkFrame(buf_.data(), &payload,
                    buf_.data() + kHeaderBytes + len, err))
        return -1;
    out.type = static_cast<MsgType>(peekU32(buf_.data() + 4));
    buf_.erase(0, total);
    out.payload = std::move(payload);
    return 1;
}

int drainSocket(int fd, const char *site, FrameReader &rx,
                std::string *err)
{
    if (!hitFailpoint(site, err))
        return -1;
    char tmp[65536];
    for (;;) {
        ssize_t r = ::recv(fd, tmp, sizeof(tmp), MSG_DONTWAIT);
        if (r > 0) {
            rx.feed(tmp, static_cast<size_t>(r));
            continue;
        }
        if (r == 0)
            return 0;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return 1;
        if (errno == EINTR)
            continue;
        if (err)
            *err = std::string("recv: ") + std::strerror(errno);
        return -1;
    }
}

// ---- message payload codecs ----------------------------------------

namespace {

void putModelSpec(WireOut &w, const sim::ModelSpec &s)
{
    w.u8(static_cast<uint8_t>(s.kind));
    w.u8(static_cast<uint8_t>(s.model));
    w.u32(s.window);
    w.u32(s.width);
    w.u8(s.perfect_bp ? 1 : 0);
    w.u8(s.ignore_deps ? 1 : 0);
}

sim::ModelSpec getModelSpec(WireIn &r)
{
    sim::ModelSpec s;
    s.kind = static_cast<sim::ModelSpec::Kind>(r.u8());
    s.model = static_cast<core::ConsistencyModel>(r.u8());
    s.window = r.u32();
    s.width = r.u32();
    s.perfect_bp = r.u8() != 0;
    s.ignore_deps = r.u8() != 0;
    return s;
}

// Keying tripwire (twin of the ones in trace_store.cc and
// campaign.cc): the unit declarations ship MemoryConfig memberwise. A
// new field must be encoded below, or workers would time a unit under
// a different config than the coordinator declared — then update the
// expected sizes here.
static_assert(sizeof(memsys::DramConfig) == 36,
              "DramConfig changed: update putMemoryConfig + "
              "getMemoryConfig, then this size");
static_assert(sizeof(memsys::MemoryConfig) == 56,
              "MemoryConfig changed: update putMemoryConfig + "
              "getMemoryConfig, then this size");

void putMemoryConfig(WireOut &w, const memsys::MemoryConfig &m)
{
    w.u32(m.hit_latency);
    w.u32(m.miss_latency);
    w.u8(static_cast<uint8_t>(m.protocol));
    w.u32(m.banks);
    w.u32(m.bank_occupancy);
    w.u32(m.dram.banks);
    w.u8(static_cast<uint8_t>(m.dram.sched));
    w.u32(m.dram.row_bytes);
    w.u32(m.dram.t_rcd);
    w.u32(m.dram.t_rp);
    w.u32(m.dram.t_cas);
    w.u32(m.dram.bus_cycles);
    w.u32(m.dram.base_latency);
    w.u32(m.dram.batch_cap);
}

memsys::MemoryConfig getMemoryConfig(WireIn &r)
{
    memsys::MemoryConfig m;
    m.hit_latency = r.u32();
    m.miss_latency = r.u32();
    m.protocol = static_cast<memsys::Protocol>(r.u8());
    m.banks = r.u32();
    m.bank_occupancy = r.u32();
    m.dram.banks = r.u32();
    m.dram.sched = static_cast<memsys::SchedPolicy>(r.u8());
    m.dram.row_bytes = r.u32();
    m.dram.t_rcd = r.u32();
    m.dram.t_rp = r.u32();
    m.dram.t_cas = r.u32();
    m.dram.bus_cycles = r.u32();
    m.dram.base_latency = r.u32();
    m.dram.batch_cap = r.u32();
    return m;
}

void putRunResult(WireOut &w, const core::RunResult &x)
{
    w.u64(x.breakdown.busy);
    w.u64(x.breakdown.sync);
    w.u64(x.breakdown.read);
    w.u64(x.breakdown.write);
    w.u64(x.breakdown.pipeline);
    w.u64(x.cycles);
    w.u64(x.instructions);
    w.u64(x.branches);
    w.u64(x.mispredicts);
    w.u64(x.read_misses);
}

core::RunResult getRunResult(WireIn &r)
{
    core::RunResult x;
    x.breakdown.busy = r.u64();
    x.breakdown.sync = r.u64();
    x.breakdown.read = r.u64();
    x.breakdown.write = r.u64();
    x.breakdown.pipeline = r.u64();
    x.cycles = r.u64();
    x.instructions = r.u64();
    x.branches = r.u64();
    x.mispredicts = r.u64();
    x.read_misses = r.u64();
    return x;
}

void putSampleSummary(WireOut &w, const sim::SampleSummary &s)
{
    w.u8(s.sampled ? 1 : 0);
    w.u64(s.windows);
    w.u64(s.measured);
    w.f64(s.cpi_mean);
    w.f64(s.ci95);
}

sim::SampleSummary getSampleSummary(WireIn &r)
{
    sim::SampleSummary s;
    s.sampled = r.u8() != 0;
    s.windows = r.u64();
    s.measured = r.u64();
    s.cpi_mean = r.f64();
    s.ci95 = r.f64();
    return s;
}

void putSamplingPlan(WireOut &w, const sim::SamplingPlan &p)
{
    w.u64(p.period);
    w.u64(p.detailed);
    w.u64(p.warmup);
    w.u64(p.seed);
}

sim::SamplingPlan getSamplingPlan(WireIn &r)
{
    sim::SamplingPlan p;
    p.period = r.u64();
    p.detailed = r.u64();
    p.warmup = r.u64();
    p.seed = r.u64();
    return p;
}

} // namespace

std::string encodeHello(const HelloMsg &m)
{
    WireOut w;
    w.u32(m.worker);
    w.u64(m.pid);
    w.u32(m.version);
    return std::move(w.buf);
}

bool decodeHello(const std::string &p, HelloMsg &m)
{
    WireIn r(p);
    m.worker = r.u32();
    m.pid = r.u64();
    m.version = r.u32();
    return r.done() && m.version == kProtocolVersion;
}

std::string encodeWelcome(const WelcomeMsg &m)
{
    WireOut w;
    w.str(m.bench);
    w.str(m.trace_dir);
    w.u64(m.signature);
    w.u32(m.heartbeat_ms);
    w.u32(m.max_attempts);
    w.u32(m.backoff_base_ms);
    w.u32(m.backoff_cap_ms);
    w.u8(m.stream_exec);
    w.u32(m.worker_threads);
    putSamplingPlan(w, m.plan);
    w.u32(static_cast<uint32_t>(m.units.size()));
    for (const UnitDecl &u : m.units) {
        w.u32(u.app);
        putMemoryConfig(w, u.mem);
        w.u8(u.small);
        w.u32(static_cast<uint32_t>(u.specs.size()));
        for (const sim::ModelSpec &s : u.specs)
            putModelSpec(w, s);
    }
    return std::move(w.buf);
}

bool decodeWelcome(const std::string &p, WelcomeMsg &m)
{
    WireIn r(p);
    m.bench = r.str();
    m.trace_dir = r.str();
    m.signature = r.u64();
    m.heartbeat_ms = r.u32();
    m.max_attempts = r.u32();
    m.backoff_base_ms = r.u32();
    m.backoff_cap_ms = r.u32();
    m.stream_exec = r.u8();
    m.worker_threads = r.u32();
    m.plan = getSamplingPlan(r);
    uint32_t units = r.u32();
    if (!r.ok || units > 1u << 20)
        return false;
    m.units.clear();
    m.units.reserve(units);
    for (uint32_t i = 0; i < units; ++i) {
        UnitDecl u;
        u.app = r.u32();
        u.mem = getMemoryConfig(r);
        u.small = r.u8();
        uint32_t specs = r.u32();
        if (!r.ok || specs > 1u << 20)
            return false;
        u.specs.reserve(specs);
        for (uint32_t s = 0; s < specs; ++s)
            u.specs.push_back(getModelSpec(r));
        m.units.push_back(std::move(u));
    }
    return r.done();
}

std::string encodeAssign(const AssignMsg &m)
{
    WireOut w;
    w.u32(m.unit);
    w.u32(static_cast<uint32_t>(m.rows.size()));
    for (uint32_t s : m.rows)
        w.u32(s);
    w.u64(m.seq);
    return std::move(w.buf);
}

bool decodeAssign(const std::string &p,
                  const std::vector<UnitDecl> &units, AssignMsg &m)
{
    WireIn r(p);
    m.unit = r.u32();
    const uint32_t n = r.u32();
    if (!r.ok || m.unit >= units.size() || n == 0 ||
        n > units[m.unit].specs.size())
        return false;
    m.rows.resize(n);
    for (uint32_t &s : m.rows) {
        s = r.u32();
        if (s >= units[m.unit].specs.size())
            return false;
    }
    m.seq = r.u64();
    return r.done();
}

std::string encodeResult(const ResultMsg &m)
{
    WireOut w;
    w.u32(m.unit);
    w.u32(m.spec);
    w.u64(m.seq);
    w.u8(m.ok);
    w.str(m.error);
    putRunResult(w, m.result);
    putSampleSummary(w, m.sampling);
    w.f64(m.wall_ms);
    w.u8(m.has_trace);
    w.str(m.trace_origin);
    w.u64(m.trace_instructions);
    w.f64(m.trace_wall_ms);
    w.f64(m.gen_ms);
    w.f64(m.load_ms);
    w.u64(m.peak_rss_bytes);
    w.u64(m.view_bytes_resident);
    return std::move(w.buf);
}

bool decodeResult(const std::string &p, ResultMsg &m)
{
    WireIn r(p);
    m.unit = r.u32();
    m.spec = r.u32();
    m.seq = r.u64();
    m.ok = r.u8();
    m.error = r.str();
    m.result = getRunResult(r);
    m.sampling = getSampleSummary(r);
    m.wall_ms = r.f64();
    m.has_trace = r.u8();
    m.trace_origin = r.str();
    m.trace_instructions = r.u64();
    m.trace_wall_ms = r.f64();
    m.gen_ms = r.f64();
    m.load_ms = r.f64();
    m.peak_rss_bytes = r.u64();
    m.view_bytes_resident = r.u64();
    return r.done();
}

std::string encodeHeartbeat(const HeartbeatMsg &m)
{
    WireOut w;
    w.u32(m.worker);
    w.u64(m.beats);
    return std::move(w.buf);
}

bool decodeHeartbeat(const std::string &p, HeartbeatMsg &m)
{
    WireIn r(p);
    m.worker = r.u32();
    m.beats = r.u64();
    return r.done();
}

} // namespace dsmem::svc
