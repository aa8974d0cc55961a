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

using detail::packMeta;

constexpr char kMagic[4] = {'D', 'S', 'M', 'T'};

std::string
readName(util::ByteSource &r, uint64_t name_len)
{
    if (name_len > 4096)
        throw util::FormatError("implausible trace name length");
    std::string name(static_cast<size_t>(name_len), '\0');
    r.read(name.data(), name.size());
    return name;
}

/**
 * Validate a decoded record count against the bytes actually left
 * before any section is sized by it, so a corrupt count field costs a
 * FormatError instead of an unbounded allocation. A record is at
 * least 4 bytes: one meta byte plus one varint byte each for addr,
 * latency, and aux.
 */
size_t
checkedCount(util::ByteSource &r, uint64_t count)
{
    if (count > r.remainingBound() / 4)
        throw util::FormatError(
            "malformed trace: record count exceeds stream size");
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

void
readHeader(util::ByteSource &r)
{
    char magic[4];
    r.read(magic, 4);
    if (std::memcmp(magic, kMagic, 4) != 0)
        throw util::FormatError("not a dsmem trace file");
    uint32_t version = r.readU32();
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
loadTrace(std::istream &is)
{
    return loadTraceView(is)->toTrace();
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
loadTraceView(std::istream &is)
{
    return loadTraceChunked(is)->flatten();
}

size_t
detail::readPrologue(util::ByteSource &r, std::string &name)
{
    readHeader(r);
    name = readName(r, r.readVarint());
    return checkedCount(r, r.readVarint());
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
loadTraceChunked(std::vector<uint8_t> bytes, size_t at)
{
    util::failpoint("trace_io.load");
    return std::make_shared<const ChunkedView>(std::move(bytes), at);
}

std::shared_ptr<const ChunkedView>
loadTraceChunked(std::istream &is)
{
    return loadTraceChunked(util::ByteSource(is).readRest(), 0);
}

std::shared_ptr<const ChunkedView>
loadTraceChunked(util::ByteSource &in,
                 std::shared_ptr<const util::ReadFile> file,
                 std::shared_ptr<FetchStats> stats)
{
    util::failpoint("trace_io.load");
    return std::make_shared<const ChunkedView>(in, std::move(file),
                                               std::move(stats));
}

} // namespace dsmem::trace
