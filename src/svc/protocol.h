#ifndef DSMEM_SVC_PROTOCOL_H
#define DSMEM_SVC_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "memsys/config.h"
#include "sim/experiment.h"
#include "sim/sampling.h"

namespace dsmem::svc {

/**
 * The campaign service's wire protocol: length-prefixed, checksummed
 * frames over a local (AF_UNIX) stream socket.
 *
 * Frame layout, all fields little-endian:
 *
 *   u32 magic 'DSVC' | u32 type | u32 len | payload[len] | u64 fnv
 *
 * where fnv is the FNV-1a hash of the payload bytes. The magic pins
 * stream alignment (a frame can only be parsed where a frame starts),
 * the length prefix bounds the read, and the trailing checksum
 * rejects a torn or corrupted payload before anything is decoded —
 * the same belt-and-braces the DSMB bundle container uses. Any
 * violation is a *protocol error*: the connection is considered
 * poisoned and dropped (at-least-once dispatch makes the drop safe —
 * the dead worker's cells simply re-dispatch).
 *
 * Payloads are encoded with the WireOut/WireIn helpers below:
 * fixed-width integers, bit-cast doubles (results must cross the
 * wire bit-identically — text formatting would round), and
 * length-prefixed strings.
 *
 * Failpoint sites: every send/receive boundary evaluates the site
 * named by its caller (svc.worker.send, svc.coord.recv, ...), so the
 * chaos driver can kill -9 either side of the connection at any
 * protocol boundary deterministically (mode `kill`), or inject
 * transient faults (mode `throw` surfaces as a connection error).
 */
inline constexpr uint32_t kProtocolMagic = 0x43565344; // "DSVC"
/** Version 2: an ASSIGN carries one planned group (several rows).
 *  Version 3: WELCOME carries worker_threads (leases run at once). */
inline constexpr uint32_t kProtocolVersion = 3;
/** Sanity cap on one frame's payload (declarations are ~KBs). */
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

enum class MsgType : uint32_t {
    HELLO = 1,     ///< worker -> coordinator: slot id + pid
    WELCOME,       ///< coordinator -> worker: full campaign declaration
    ASSIGN,        ///< coordinator -> worker: run one planned group
    RESULT,        ///< worker -> coordinator: one row's outcome
    HEARTBEAT,     ///< worker -> coordinator: lease renewal
    SHUTDOWN,      ///< coordinator -> worker: drain and exit
};

struct Frame {
    MsgType type = MsgType::HELLO;
    std::string payload;
};

/** Little-endian payload encoder. */
struct WireOut {
    std::string buf;

    void u8(uint8_t v) { buf.push_back(static_cast<char>(v)); }
    void u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void f64(double v); ///< Bit-cast; exact round trip.
    void str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buf.append(s);
    }
};

/** Little-endian payload decoder; sticky ok flag instead of throws. */
struct WireIn {
    const std::string &buf;
    size_t pos = 0;
    bool ok = true;

    explicit WireIn(const std::string &b) : buf(b) {}

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    double f64();
    std::string str();
    /** Whole payload consumed cleanly (trailing garbage is an error). */
    bool done() const { return ok && pos == buf.size(); }
};

/**
 * Send one frame on a (blocking) socket. @p site names the failpoint
 * boundary ("svc.worker.send" / "svc.coord.send"). Returns false
 * with a diagnostic on any failure; the connection should then be
 * treated as dead.
 */
bool sendFrame(int fd, const char *site, MsgType type,
               const std::string &payload, std::string *err);

/**
 * Blocking receive of exactly one frame (the worker side). Returns
 * false on EOF, I/O error, or protocol violation.
 */
bool recvFrame(int fd, const char *site, Frame &out, std::string *err);

/**
 * Incremental frame parser for the coordinator's non-blocking reads:
 * feed() raw bytes, then next() until it stops returning 1.
 */
class FrameReader
{
  public:
    void feed(const char *data, size_t n) { buf_.append(data, n); }

    /** 1 = frame extracted, 0 = need more bytes, -1 = protocol error. */
    int next(Frame &out, std::string *err);

  private:
    std::string buf_;
};

/**
 * Drain everything currently readable from @p fd into @p rx without
 * blocking. @p site is the receive failpoint boundary. Returns 1 on
 * success, 0 on orderly EOF, -1 on error.
 */
int drainSocket(int fd, const char *site, FrameReader &rx,
                std::string *err);

// ---- message payloads ----------------------------------------------

struct HelloMsg {
    uint32_t worker = 0;
    uint64_t pid = 0;
    uint32_t version = kProtocolVersion;
};

/** One campaign unit, as shipped to workers. */
struct UnitDecl {
    uint32_t app = 0; ///< static_cast of sim::AppId
    memsys::MemoryConfig mem;
    uint8_t small = 0;
    std::vector<sim::ModelSpec> specs;
};

/** The full worker configuration: declaration set + policies. */
struct WelcomeMsg {
    std::string bench;
    std::string trace_dir;
    uint64_t signature = 0;
    uint32_t heartbeat_ms = 500;
    uint32_t max_attempts = 3;
    uint32_t backoff_base_ms = 10;
    uint32_t backoff_cap_ms = 1000;
    /** static_cast of sim::StreamExec: the trace-residency policy the
     *  worker's TraceStore applies (chunk-compressed streaming vs flat
     *  view — see sim/stream_exec.h). */
    uint8_t stream_exec = 0;
    /** Leases the worker runs at once, each on its own pool thread;
     *  the coordinator keeps this many in flight per worker. */
    uint32_t worker_threads = 1;
    sim::SamplingPlan plan;
    std::vector<UnitDecl> units;
};

/**
 * One lease: a phase-2 group of one unit, as runner::Campaign planned
 * it (sim::ExecGroup; several rows are always a fused sweep family).
 * The worker answers with one RESULT per row.
 */
struct AssignMsg {
    uint32_t unit = 0;
    std::vector<uint32_t> rows; ///< Spec indices, in plan order.
    uint64_t seq = 0; ///< Dispatch sequence number: the lease's key.
};

struct ResultMsg {
    uint32_t unit = 0;
    uint32_t spec = 0;
    uint64_t seq = 0; ///< The answered ASSIGN's seq.
    uint8_t ok = 1;    ///< 0: the cell failed permanently worker-side.
    std::string error; ///< Failure text when !ok.
    core::RunResult result;
    sim::SampleSummary sampling;
    double wall_ms = 0.0;
    /** Trace provenance piggyback (coordinator keeps the first). */
    uint8_t has_trace = 0;
    std::string trace_origin;
    uint64_t trace_instructions = 0;
    double trace_wall_ms = 0.0;
    double gen_ms = 0.0;
    double load_ms = 0.0;
    /** Worker-process memory accounting (the streaming executor's
     *  acceptance metric): getrusage peak RSS at result time, and the
     *  bytes the cell's trace held resident (compressed chunks when
     *  streamed, the full SoA footprint when flat). */
    uint64_t peak_rss_bytes = 0;
    uint64_t view_bytes_resident = 0;
};

struct HeartbeatMsg {
    uint32_t worker = 0;
    uint64_t beats = 0;
};

std::string encodeHello(const HelloMsg &m);
/** False also for a HELLO of another protocol version. */
bool decodeHello(const std::string &p, HelloMsg &m);
std::string encodeWelcome(const WelcomeMsg &m);
bool decodeWelcome(const std::string &p, WelcomeMsg &m);
std::string encodeAssign(const AssignMsg &m);
/**
 * Decode against the declaration set @p units: false unless the unit
 * exists and the group has between one and as many rows as the unit
 * has specs, each a valid spec index.
 */
bool decodeAssign(const std::string &p,
                  const std::vector<UnitDecl> &units, AssignMsg &m);
std::string encodeResult(const ResultMsg &m);
bool decodeResult(const std::string &p, ResultMsg &m);
std::string encodeHeartbeat(const HeartbeatMsg &m);
bool decodeHeartbeat(const std::string &p, HeartbeatMsg &m);

} // namespace dsmem::svc

#endif // DSMEM_SVC_PROTOCOL_H
