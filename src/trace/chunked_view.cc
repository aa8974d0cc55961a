#include "trace/chunked_view.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "trace/trace_format.h"
#include "trace/trace_io.h"
#include "util/byte_io.h"
#include "util/errors.h"
#include "util/failpoint.h"

namespace dsmem::trace {

namespace {

using detail::kMetaOpMask;
using detail::kMetaSrcMask;
using detail::kMetaSrcShift;
using detail::kMetaTakenShift;

/** Longest canonical LEB128 encoding of a uint32. */
constexpr size_t kMaxVarint32Bytes = 5;

/** A flat view's v2 encoding (saveTrace): what a disk holds. */
std::vector<uint8_t>
encodeView(const TraceView &v)
{
    std::ostringstream os(std::ios::binary);
    util::ByteSink sink(os);
    saveTrace(v, sink);
    sink.flush();
    const std::string bytes = std::move(os).str();
    return std::vector<uint8_t>(bytes.begin(), bytes.end());
}

/**
 * Decode one varint of a section the lean loader is validating: a
 * canonical LEB128 encoding (no redundant high zero group) of at most
 * kMaxVarint32Bytes bytes whose value fits 32 bits, lying before
 * @p end. That is exactly what VarintReader may then assume.
 */
[[gnu::noinline]] const uint8_t *
checkVarint32Slow(const uint8_t *p, const uint8_t *end, uint32_t &out)
{
    uint32_t v = 0;
    for (unsigned k = 0; k < kMaxVarint32Bytes; ++k) {
        if (p == end)
            throw util::TruncatedError(
                "malformed trace: section ends early");
        const uint8_t b = *p++;
        // The fifth byte carries bits 28..31 and must end the value.
        if (k + 1 == kMaxVarint32Bytes && b > 0x0F)
            throw util::FormatError(
                "malformed trace: varint exceeds 32 bits");
        v |= static_cast<uint32_t>(b & 0x7F) << (7 * k);
        if ((b & 0x80) == 0) {
            if (k > 0 && b == 0)
                throw util::FormatError(
                    "malformed trace: overlong varint");
            out = v;
            return p;
        }
    }
    throw util::FormatError("malformed trace: varint exceeds 32 bits");
}

inline const uint8_t *
checkVarint32(const uint8_t *p, const uint8_t *end, uint32_t &out)
{
    if (p != end && *p < 0x80) [[likely]] {
        out = *p;
        return p + 1;
    }
    return checkVarint32Slow(p, end, out);
}

/**
 * Tight in-memory varint reader over a resident section. Every
 * section was validated when its view was built (checkVarint32, or
 * written by the Encoder from 32-bit values), so decoding needs no
 * bounds or malformed-encoding checks — every value is a canonical
 * <= 5-byte varint of a uint32.
 */
class VarintReader
{
  public:
    explicit VarintReader(const uint8_t *p) : p_(p) {}

    uint32_t next()
    {
        uint32_t b = *p_++;
        if (b < 0x80) [[likely]]
            return b;
        // Two-byte values (deltas 128..16383) are the common slow
        // case; peel them before the general loop.
        uint32_t v = b & 0x7F;
        b = *p_++;
        if (b < 0x80) [[likely]]
            return v | (b << 7);
        v |= (b & 0x7F) << 7;
        unsigned shift = 14;
        do {
            b = *p_++;
            v |= (b & 0x7F) << shift;
            shift += 7;
        } while (b & 0x80);
        return v;
    }

  private:
    const uint8_t *p_;
};

/**
 * Decode-side lookup tables indexed by the packed meta byte. Built
 * once from the same classifyInst/fuClass the flat view uses — with
 * the kMiss bit (the only latency-dependent classification) split
 * out — so the table path cannot drift from the flat view's flags.
 * Turns the per-instruction classification (an out-of-line call plus
 * eight predicate branches) into two loads and an or.
 */
struct MetaTables {
    uint8_t fu[256];
    uint8_t flags_base[256]; ///< classifyInst at latency 1 (no miss).
    uint8_t miss_bit[256];   ///< kMiss iff latency > 1 would add it.

    MetaTables()
    {
        for (unsigned m = 0; m < 256; ++m) {
            const unsigned raw_op = m & kMetaOpMask;
            fu[m] = 0;
            flags_base[m] = 0;
            miss_bit[m] = 0;
            if (raw_op >= kNumOps)
                continue;
            const Op op = static_cast<Op>(raw_op);
            const bool taken = (m >> kMetaTakenShift) & 1u;
            fu[m] = static_cast<uint8_t>(fuClass(op));
            flags_base[m] = detail::classifyInst(op, 1, taken);
            miss_bit[m] = static_cast<uint8_t>(
                detail::classifyInst(op, 2, taken) ^ flags_base[m]);
        }
    }
};

const MetaTables &
metaTables()
{
    static const MetaTables tables;
    return tables;
}

/**
 * Validate one source reference (Trace::validate's SSA rule): the
 * producer must be an earlier instruction whose op produces a value,
 * read from the raw meta bytes @p meta.
 */
inline bool
validSource(InstIndex producer, size_t i, const uint8_t *meta)
{
    if (producer == kNoSrc || producer >= i)
        return false;
    return producesValue(
        static_cast<Op>(meta[producer] & kMetaOpMask));
}

/**
 * Varint writer over a section buffer: grows it by the chunk's worst
 * case once, then trims to what was written (no per-byte push_back).
 */
class SectionWriter
{
  public:
    SectionWriter(std::vector<uint8_t> &out, size_t max_values)
        : out_(out), at_(out.size())
    {
        out_.resize(at_ + max_values * kMaxVarint32Bytes);
        p_ = out_.data() + at_;
    }
    ~SectionWriter() { out_.resize(static_cast<size_t>(p_ - out_.data())); }

    SectionWriter(const SectionWriter &) = delete;
    SectionWriter &operator=(const SectionWriter &) = delete;

    void put(uint32_t v) { p_ = util::encodeVarint(p_, v); }

  private:
    std::vector<uint8_t> &out_;
    size_t at_;
    uint8_t *p_;
};

} // namespace

ChunkedView::ChunkedView(const TraceView &v) : ChunkedView(encodeView(v), 0)
{
}

ChunkedView::ChunkedView(std::vector<uint8_t> bytes, size_t at)
    : bytes_(std::move(bytes))
{
    if (at > bytes_.size())
        throw std::logic_error("ChunkedView: trace offset past the bytes");
    util::ByteReader prologue(bytes_.data() + at, bytes_.size() - at);
    n_ = detail::readPrologue(prologue, name_);

    // One pass over the sections in file order (meta, srcs, addr,
    // latency, aux): validate every value as the Encoder does when it
    // writes one, and record where each chunk's slice of each section
    // starts plus the delta accumulators entering it. The bytes stay
    // as read.
    const uint8_t *const base = bytes_.data();
    const uint8_t *const end = base + bytes_.size();
    const uint8_t *const meta = prologue.take(n_);
    for (size_t i = 0; i < n_; ++i) {
        if ((meta[i] & kMetaOpMask) >= kNumOps)
            throw util::FormatError("malformed trace: bad opcode");
    }
    const size_t chunks = (n_ + kChunkInstrs - 1) / kChunkInstrs;
    dir_.resize(chunks);
    const uint8_t *p = meta + n_;
    sec_[kMeta] = static_cast<size_t>(meta - base);

    sec_[kSrcs] = static_cast<size_t>(p - base);
    for (size_t c = 0; c < chunks; ++c) {
        dir_[c].srcs_off = static_cast<size_t>(p - base) - sec_[kSrcs];
        const size_t hi = std::min(n_, (c + 1) * kChunkInstrs);
        for (size_t i = c * kChunkInstrs; i < hi; ++i) {
            const uint8_t ns = (meta[i] >> kMetaSrcShift) & kMetaSrcMask;
            for (uint8_t s = 0; s < ns; ++s) {
                uint32_t delta;
                p = checkVarint32(p, end, delta);
                if (!validSource(static_cast<uint32_t>(i) - delta, i,
                                 meta))
                    throw util::FormatError(
                        "malformed trace: SSA check failed");
            }
        }
    }

    // Address and latency: zigzag deltas whose accumulators seed
    // each chunk's decode.
    for (Section sec : {kAddr, kLat}) {
        sec_[sec] = static_cast<size_t>(p - base);
        uint32_t prev = 0;
        for (size_t c = 0; c < chunks; ++c) {
            ChunkDir &d = dir_[c];
            (sec == kAddr ? d.addr_off : d.lat_off) =
                static_cast<size_t>(p - base) - sec_[sec];
            (sec == kAddr ? d.addr_prev : d.lat_prev) = prev;
            const size_t hi = std::min(n_, (c + 1) * kChunkInstrs);
            for (size_t i = c * kChunkInstrs; i < hi; ++i) {
                uint32_t z;
                p = checkVarint32(p, end, z);
                prev += util::unzigzag32(z);
            }
        }
    }

    sec_[kAux] = static_cast<size_t>(p - base);
    for (size_t c = 0; c < chunks; ++c) {
        dir_[c].aux_off = static_cast<size_t>(p - base) - sec_[kAux];
        const size_t hi = std::min(n_, (c + 1) * kChunkInstrs);
        for (size_t i = c * kChunkInstrs; i < hi; ++i) {
            uint32_t aux;
            p = checkVarint32(p, end, aux);
        }
    }
    sec_[kSections] = static_cast<size_t>(p - base);
    if (p != end)
        throw util::FormatError(
            "malformed trace: bytes after the aux section");
}

ChunkedView::Encoder::Encoder() : view_(new ChunkedView()) {}

void
ChunkedView::Encoder::add(const TraceInst *r, size_t count)
{
    ChunkedView &v = *view_;
    const size_t lo = v.n_;
    if (count == 0 || count > kChunkInstrs || lo % kChunkInstrs != 0)
        throw std::logic_error("ChunkedView::Encoder: chunk after a "
                               "partial chunk, or an empty/oversized one");

    ChunkDir d;
    d.srcs_off = sections_[kSrcs].size();
    d.addr_off = sections_[kAddr].size();
    d.lat_off = sections_[kLat].size();
    d.aux_off = sections_[kAux].size();
    d.addr_prev = addr_prev_;
    d.lat_prev = lat_prev_;

    // Meta first: the SSA check below reads producers' opcodes from
    // it, and a producer may sit earlier in this same chunk.
    sections_[kMeta].resize(lo + count);
    uint8_t *meta = sections_[kMeta].data();
    for (size_t j = 0; j < count; ++j) {
        const TraceInst &inst = r[j];
        if (static_cast<uint8_t>(inst.op) >= kNumOps)
            throw util::FormatError("malformed trace: bad opcode");
        if (inst.num_srcs > kMaxSrcs)
            throw util::FormatError("malformed trace: bad src count");
        meta[lo + j] = detail::packMeta(inst.op, inst.num_srcs, inst.taken);
    }
    {
        SectionWriter w(sections_[kSrcs], count * kMaxSrcs);
        for (size_t j = 0; j < count; ++j) {
            const size_t i = lo + j;
            for (uint8_t s = 0; s < r[j].num_srcs; ++s) {
                const InstIndex producer = r[j].src[s];
                if (!validSource(producer, i, meta))
                    throw util::FormatError(
                        "malformed trace: SSA check failed");
                w.put(static_cast<uint32_t>(i) - producer);
            }
        }
    }
    {
        SectionWriter w(sections_[kAddr], count);
        for (size_t j = 0; j < count; ++j) {
            w.put(util::zigzag32(r[j].addr - addr_prev_));
            addr_prev_ = r[j].addr;
        }
    }
    {
        SectionWriter w(sections_[kLat], count);
        for (size_t j = 0; j < count; ++j) {
            w.put(util::zigzag32(r[j].latency - lat_prev_));
            lat_prev_ = r[j].latency;
        }
    }
    {
        SectionWriter w(sections_[kAux], count);
        for (size_t j = 0; j < count; ++j)
            w.put(r[j].aux);
    }
    v.dir_.push_back(d);
    v.n_ = lo + count;
}

std::shared_ptr<const ChunkedView>
ChunkedView::Encoder::finish(std::string name)
{
    ChunkedView &v = *view_;
    size_t total = 0;
    for (const std::vector<uint8_t> &sec : sections_)
        total += sec.size();
    v.bytes_.reserve(total);
    for (size_t k = 0; k < kSections; ++k) {
        v.sec_[k] = v.bytes_.size();
        v.bytes_.insert(v.bytes_.end(), sections_[k].begin(),
                        sections_[k].end());
        std::vector<uint8_t>().swap(sections_[k]);
    }
    v.sec_[kSections] = v.bytes_.size();
    v.name_ = std::move(name);
    return std::move(view_);
}

bool
operator==(const ChunkedView &a, const ChunkedView &b)
{
    for (size_t k = ChunkedView::kSrcs; k <= ChunkedView::kSections; ++k)
        if (a.sec_[k] - a.sec_[ChunkedView::kMeta] !=
            b.sec_[k] - b.sec_[ChunkedView::kMeta])
            return false;
    return a.name_ == b.name_ && a.n_ == b.n_ &&
        std::equal(a.section(ChunkedView::kMeta),
                   a.section(ChunkedView::kMeta) + a.bodyBytes(),
                   b.section(ChunkedView::kMeta)) &&
        a.dir_ == b.dir_;
}

void
saveTrace(const ChunkedView &cv, util::ByteSink &sink)
{
    util::failpoint("trace_io.save");
    detail::writePrologue(sink, cv.name_, cv.n_);
    sink.put(cv.section(ChunkedView::kMeta), cv.bodyBytes());
}

void
ChunkedView::decodeChunk(size_t c, TraceTile &tile) const
{
    const size_t cnt = chunkLength(c);
    tile.base = chunkBase(c);
    tile.count = cnt;
    tile.ops.resize(cnt);
    tile.fu.resize(cnt);
    tile.flags.resize(cnt);
    tile.num_srcs.resize(cnt);
    tile.srcs.resize(cnt);
    tile.addr.resize(cnt);
    tile.latency.resize(cnt);
    tile.aux.resize(cnt);
    decodeInto(c, Columns{tile.ops.data(), tile.fu.data(),
                          tile.flags.data(), tile.num_srcs.data(),
                          tile.srcs.data(), tile.addr.data(),
                          tile.latency.data(), tile.aux.data()});
}

void
ChunkedView::decodeInto(size_t c, const Columns &out) const
{
    const ChunkDir &d = dir_[c];
    const size_t lo = c * kChunkInstrs;
    const size_t cnt = chunkLength(c);

    const MetaTables &t = metaTables();
    const uint8_t *meta = section(kMeta) + lo;
    for (size_t j = 0; j < cnt; ++j) {
        const uint8_t m = meta[j];
        out.ops[j] = static_cast<Op>(m & kMetaOpMask);
        out.fu[j] = t.fu[m];
        out.num_srcs[j] = (m >> kMetaSrcShift) & kMetaSrcMask;
    }

    VarintReader sr(section(kSrcs) + d.srcs_off);
    for (size_t j = 0; j < cnt; ++j) {
        auto &slots = out.srcs[j];
        const uint32_t self = static_cast<uint32_t>(lo + j);
        // Unrolled by count (kMaxSrcs == 3): one predictable switch
        // instead of two dependent per-slot loops.
        static_assert(kMaxSrcs == 3,
                      "srcs decode unroll assumes three slots");
        switch (out.num_srcs[j]) {
          case 0:
            slots[0] = kNoSrc;
            slots[1] = kNoSrc;
            slots[2] = kNoSrc;
            break;
          case 1:
            slots[0] = self - sr.next();
            slots[1] = kNoSrc;
            slots[2] = kNoSrc;
            break;
          case 2:
            slots[0] = self - sr.next();
            slots[1] = self - sr.next();
            slots[2] = kNoSrc;
            break;
          default:
            slots[0] = self - sr.next();
            slots[1] = self - sr.next();
            slots[2] = self - sr.next();
            break;
        }
    }

    VarintReader ar(section(kAddr) + d.addr_off);
    uint32_t prev = d.addr_prev;
    for (size_t j = 0; j < cnt; ++j) {
        prev += util::unzigzag32(ar.next());
        out.addr[j] = prev;
    }

    VarintReader lr(section(kLat) + d.lat_off);
    prev = d.lat_prev;
    for (size_t j = 0; j < cnt; ++j) {
        prev += util::unzigzag32(lr.next());
        out.latency[j] = prev;
    }

    VarintReader xr(section(kAux) + d.aux_off);
    for (size_t j = 0; j < cnt; ++j)
        out.aux[j] = xr.next();

    // Flags last: the kMiss bit needs the decoded latency. The tables
    // are derived from classifyInst, so this stays bit-identical to
    // the flat view's flags (branchless: miss_bit masked by the
    // latency predicate).
    for (size_t j = 0; j < cnt; ++j) {
        const uint8_t m = meta[j];
        out.flags[j] = static_cast<uint8_t>(
            t.flags_base[m] |
            (t.miss_bit[m] &
             static_cast<uint8_t>(-(out.latency[j] > 1))));
    }
}

size_t
ChunkedView::bytesResident() const
{
    size_t flat = 0;
    {
        std::lock_guard<std::mutex> lock(flat_mu_);
        if (flat_)
            flat = flat_->size() *
                static_cast<size_t>(TraceView::bytesPerInstr());
    }
    return bodyBytes() + dir_.size() * sizeof(ChunkDir) + name_.size() +
        flat;
}

bool
ChunkedView::flattened() const
{
    std::lock_guard<std::mutex> lock(flat_mu_);
    return flat_ != nullptr;
}

std::shared_ptr<const TraceView>
ChunkedView::flatten() const
{
    std::lock_guard<std::mutex> lock(flat_mu_);
    if (flat_)
        return flat_;

    // Decode every chunk straight into the view's columns. They grow
    // one chunk at a time, so each page is written while it is
    // cache-hot and the zero-fill never runs ahead of the decode. The
    // sections were validated when this view was built, so the
    // columns need no second check.
    std::shared_ptr<TraceView> v(new TraceView());
    v->name_ = name_;
    v->ops_.reserve(n_);
    v->fu_.reserve(n_);
    v->flags_.reserve(n_);
    v->num_srcs_.reserve(n_);
    v->srcs_.reserve(n_);
    v->addr_.reserve(n_);
    v->latency_.reserve(n_);
    v->aux_.reserve(n_);
    for (size_t c = 0; c < dir_.size(); ++c) {
        const size_t lo = chunkBase(c);
        const size_t hi = lo + chunkLength(c);
        v->ops_.resize(hi);
        v->fu_.resize(hi);
        v->flags_.resize(hi);
        v->num_srcs_.resize(hi);
        v->srcs_.resize(hi);
        v->addr_.resize(hi);
        v->latency_.resize(hi);
        v->aux_.resize(hi);
        decodeInto(c, Columns{v->ops_.data() + lo, v->fu_.data() + lo,
                              v->flags_.data() + lo,
                              v->num_srcs_.data() + lo,
                              v->srcs_.data() + lo, v->addr_.data() + lo,
                              v->latency_.data() + lo,
                              v->aux_.data() + lo});
    }
    flat_ = std::move(v);
    return flat_;
}

} // namespace dsmem::trace
