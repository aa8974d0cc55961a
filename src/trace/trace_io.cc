#include "trace/trace_io.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "trace/chunked_view.h"
#include "trace/trace_format.h"
#include "util/errors.h"
#include "util/failpoint.h"

namespace dsmem::trace {

namespace {

using detail::kMetaOpMask;
using detail::kMetaSrcMask;
using detail::kMetaSrcShift;
using detail::kMetaTakenShift;
using detail::packMeta;

constexpr char kMagic[4] = {'D', 'S', 'M', 'T'};

std::string
readName(util::ByteSource &src, uint32_t name_len)
{
    if (name_len > 4096)
        throw util::FormatError("implausible trace name length");
    std::string name(name_len, '\0');
    if (name_len > 0)
        src.read(name.data(), name_len);
    return name;
}

/**
 * Validate a decoded record count against the bytes actually left in
 * the stream before any section array is reserved, so a corrupt count
 * field costs a FormatError instead of an unbounded allocation.
 * @p min_bytes_per_record is the smallest on-disk footprint one
 * record can have in the version being decoded.
 */
size_t
checkedCount(util::ByteSource &src, uint64_t count,
             uint64_t min_bytes_per_record)
{
    uint64_t bound = src.remainingBound();
    if (bound != UINT64_MAX && count > bound / min_bytes_per_record)
        throw util::FormatError(
            "malformed trace: record count exceeds stream size");
    // Unseekable stream (no bound): still refuse counts whose arrays
    // could not be addressed.
    if (count > SIZE_MAX / 32)
        throw util::FormatError("implausible trace record count");
    return static_cast<size_t>(count);
}

/**
 * TraceView's record accessors over an AoS Trace, so one writer
 * serves both trace shapes.
 */
struct AosRecords {
    const Trace &t;

    const std::string &name() const { return t.name(); }
    size_t size() const { return t.size(); }
    Op op(size_t i) const { return t[i].op; }
    uint8_t numSrcs(size_t i) const { return t[i].num_srcs; }
    bool taken(size_t i) const { return t[i].taken; }
    const InstIndex *srcs(size_t i) const { return t[i].src; }
    Addr addr(size_t i) const { return t[i].addr; }
    uint32_t latency(size_t i) const { return t[i].latency; }
    uint32_t aux(size_t i) const { return t[i].aux; }
};

/**
 * The one definition of the v2 byte layout (see trace_io.h), over
 * any record source with TraceView's accessors.
 */
template <typename Records>
void
writeTrace(const Records &r, util::ByteSink &sink)
{
    util::failpoint("trace_io.save");
    const size_t n = r.size();
    detail::writePrologue(sink, r.name(), n);

    for (size_t i = 0; i < n; ++i)
        sink.putByte(packMeta(r.op(i), r.numSrcs(i), r.taken(i)));
    for (size_t i = 0; i < n; ++i) {
        const InstIndex *srcs = r.srcs(i);
        for (uint8_t s = 0; s < r.numSrcs(i); ++s)
            sink.putVarint(static_cast<uint32_t>(i) - srcs[s]);
    }
    uint32_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
        sink.putVarint(util::zigzag32(r.addr(i) - prev));
        prev = r.addr(i);
    }
    prev = 0;
    for (size_t i = 0; i < n; ++i) {
        sink.putVarint(util::zigzag32(r.latency(i) - prev));
        prev = r.latency(i);
    }
    for (size_t i = 0; i < n; ++i)
        sink.putVarint(r.aux(i));
}

/**
 * Decode the prologue (after magic + version) and the five SoA
 * sections into Parts. Shared by the AoS and direct-to-view
 * loaders; SSA validation happens downstream (Trace::validate or the
 * TraceView(Parts) constructor).
 */
TraceView::Parts
readParts(util::ByteSource &src)
{
    TraceView::Parts parts;
    parts.name = readName(src, src.readVarint32());
    // A record is at least 4 bytes on disk: one meta byte plus one
    // varint byte each for addr, latency, and aux.
    const size_t n = checkedCount(src, src.readVarint(), 4);
    parts.ops.resize(n);
    parts.num_srcs.resize(n);
    parts.taken.resize(n);
    parts.srcs.resize(n);
    parts.addr.resize(n);
    parts.latency.resize(n);
    parts.aux.resize(n);

    // The meta section is n contiguous bytes: one bulk read, then a
    // branch-light unpack loop (a readByte() call per element showed
    // up as the hottest part of the decode).
    std::vector<uint8_t> meta(n);
    if (n > 0)
        src.read(meta.data(), n);
    for (size_t i = 0; i < n; ++i) {
        uint8_t m = meta[i];
        uint8_t op_raw = m & kMetaOpMask;
        if (op_raw >= kNumOps)
            throw util::FormatError("malformed trace: bad opcode");
        parts.ops[i] = static_cast<Op>(op_raw);
        parts.num_srcs[i] = (m >> kMetaSrcShift) & kMetaSrcMask;
        parts.taken[i] = (m >> kMetaTakenShift) & 1u;
    }
    for (size_t i = 0; i < n; ++i) {
        auto &slots = parts.srcs[i];
        uint8_t s = 0;
        for (; s < parts.num_srcs[i]; ++s) {
            // Producer stored as distance back from i; wrapping u32
            // arithmetic round-trips every value, including kNoSrc.
            uint32_t delta = src.readVarint32();
            slots[s] = static_cast<uint32_t>(i) - delta;
        }
        // Unused slots carry kNoSrc, written here so the array is
        // touched once instead of pre-filled and partially rewritten.
        for (; s < kMaxSrcs; ++s)
            slots[s] = kNoSrc;
    }
    uint32_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
        prev += util::unzigzag32(src.readVarint32());
        parts.addr[i] = prev;
    }
    prev = 0;
    for (size_t i = 0; i < n; ++i) {
        prev += util::unzigzag32(src.readVarint32());
        parts.latency[i] = prev;
    }
    for (size_t i = 0; i < n; ++i)
        parts.aux[i] = src.readVarint32();
    return parts;
}

Trace
loadBody(util::ByteSource &src)
{
    TraceView::Parts parts = readParts(src);

    Trace t(std::move(parts.name));
    const size_t n = parts.ops.size();
    t.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        TraceInst inst;
        inst.op = parts.ops[i];
        inst.num_srcs = parts.num_srcs[i];
        inst.taken = parts.taken[i] != 0;
        inst.src[0] = parts.srcs[i][0];
        inst.src[1] = parts.srcs[i][1];
        inst.src[2] = parts.srcs[i][2];
        inst.addr = parts.addr[i];
        inst.latency = parts.latency[i];
        inst.aux = parts.aux[i];
        t.append(inst);
    }
    if (t.validate() != t.size())
        throw util::FormatError("malformed trace: SSA check failed");
    return t;
}

void
readHeader(util::ByteSource &src)
{
    char magic[4];
    src.read(magic, 4);
    if (std::memcmp(magic, kMagic, 4) != 0)
        throw util::FormatError("not a dsmem trace file");
    uint32_t version = src.readU32();
    if (version != kTraceFormatVersion) {
        throw util::FormatError("unsupported trace format version " +
                                 std::to_string(version));
    }
}

} // namespace

void
saveTrace(const Trace &t, util::ByteSink &sink)
{
    writeTrace(AosRecords{t}, sink);
}

void
saveTrace(const TraceView &v, util::ByteSink &sink)
{
    writeTrace(v, sink);
}

void
saveTrace(const Trace &t, std::ostream &os)
{
    util::ByteSink sink(os);
    saveTrace(t, sink);
    sink.flush();
}

void
saveTraceFile(const Trace &t, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        throw util::IoError("cannot open " + path + " for write");
    saveTrace(t, os);
}

Trace
loadTrace(util::ByteSource &src)
{
    util::failpoint("trace_io.load");
    readHeader(src);
    return loadBody(src);
}

Trace
loadTrace(std::istream &is)
{
    util::ByteSource src(is);
    return loadTrace(src);
}

Trace
loadTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw util::IoError("cannot open " + path);
    return loadTrace(is);
}

std::shared_ptr<const TraceView>
loadTraceView(util::ByteSource &src)
{
    util::failpoint("trace_io.load");
    readHeader(src);
    return std::make_shared<const TraceView>(readParts(src));
}

std::shared_ptr<const TraceView>
loadTraceView(std::istream &is)
{
    util::ByteSource src(is);
    return loadTraceView(src);
}

size_t
detail::readPrologue(util::ByteSource &src, std::string &name)
{
    readHeader(src);
    name = readName(src, src.readVarint32());
    return checkedCount(src, src.readVarint(), 4);
}

void
detail::writePrologue(util::ByteSink &sink, const std::string &name,
                      size_t n)
{
    sink.put(kMagic, 4);
    sink.putU32(kTraceFormatVersion);
    sink.putVarint(name.size());
    sink.put(name.data(), name.size());
    sink.putVarint(n);
}

std::shared_ptr<const ChunkedView>
loadTraceChunked(util::ByteSource &src)
{
    util::failpoint("trace_io.load");
    std::string name;
    const size_t n = detail::readPrologue(src, name);
    return std::make_shared<const ChunkedView>(src, std::move(name), n);
}

std::shared_ptr<const ChunkedView>
loadTraceChunked(std::istream &is)
{
    util::ByteSource src(is);
    return loadTraceChunked(src);
}

} // namespace dsmem::trace
