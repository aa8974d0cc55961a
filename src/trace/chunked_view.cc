#include "trace/chunked_view.h"

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

/** Append @p v to @p out in canonical LEB128 (util::encodeVarint). */
inline void
appendVarint(std::vector<uint8_t> &out, uint32_t v)
{
    uint8_t tmp[util::kMaxVarintBytes];
    const uint8_t *end = util::encodeVarint(tmp, v);
    for (const uint8_t *p = tmp; p != end; ++p)
        out.push_back(*p);
}

/**
 * A flat view's v2 encoding (saveTrace), read back up to its meta
 * section: what ChunkedView's stream constructor reads off a disk.
 */
class Encoding
{
  public:
    explicit Encoding(const TraceView &v)
    {
        util::ByteSink sink(bytes_);
        saveTrace(v, sink);
        sink.flush();
        std::string name;
        detail::readPrologue(src_, name);
    }

    /** The encoding's remaining bytes, from the meta section on. */
    util::ByteSource &body() { return src_; }

  private:
    std::stringstream bytes_;
    util::ByteSource src_{bytes_};
};

/**
 * Tight in-memory varint reader over a resident section buffer. The
 * buffers are written by this translation unit from validated 32-bit
 * values, so decoding needs no bounds or malformed-encoding checks —
 * every value is a canonical <= 5-byte varint of a uint32.
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
 * Validate one source reference the way TraceView(Parts) does: the
 * producer must be an earlier instruction whose op produces a value.
 * @p producer_meta is the producer's raw meta byte (valid only when
 * the index check passes).
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

ChunkedView::ChunkedView(const TraceView &v)
    : ChunkedView(Encoding(v).body(), v.name(), v.size())
{
}

ChunkedView::ChunkedView(util::ByteSource &src, std::string name,
                         size_t n)
    : name_(std::move(name)), n_(n)
{
    const size_t chunks = (n_ + kChunkInstrs - 1) / kChunkInstrs;
    dir_.resize(chunks);

    // The v2 sections arrive in order (meta, srcs, addr, latency,
    // aux), so one sequential pass re-slices each into its resident
    // buffer while recording the per-chunk offsets and accumulator
    // seeds. Values are decoded (never blind-copied) so this path
    // validates exactly what the flat loaders validate: opcode range,
    // and SSA form via the meta bytes as the producer-opcode table.
    meta_.resize(n_);
    if (n_ > 0)
        src.read(meta_.data(), n_);
    for (size_t i = 0; i < n_; ++i) {
        if ((meta_[i] & kMetaOpMask) >= kNumOps)
            throw util::FormatError("malformed trace: bad opcode");
    }

    srcs_bytes_.reserve(n_);
    for (size_t c = 0; c < chunks; ++c) {
        dir_[c].srcs_off = srcs_bytes_.size();
        const size_t lo = c * kChunkInstrs;
        const size_t hi = std::min(n_, lo + kChunkInstrs);
        for (size_t i = lo; i < hi; ++i) {
            const uint8_t ns = (meta_[i] >> kMetaSrcShift) & kMetaSrcMask;
            for (uint8_t s = 0; s < ns; ++s) {
                const uint32_t delta = src.readVarint32();
                const InstIndex producer =
                    static_cast<uint32_t>(i) - delta;
                if (!validSource(producer, i, meta_.data()))
                    throw util::FormatError(
                        "malformed trace: SSA check failed");
                appendVarint(srcs_bytes_, delta);
            }
        }
    }

    addr_bytes_.reserve(n_ * 2);
    uint32_t prev = 0;
    for (size_t c = 0; c < chunks; ++c) {
        dir_[c].addr_off = addr_bytes_.size();
        dir_[c].addr_prev = prev;
        const size_t lo = c * kChunkInstrs;
        const size_t hi = std::min(n_, lo + kChunkInstrs);
        for (size_t i = lo; i < hi; ++i) {
            const uint32_t z = src.readVarint32();
            prev += util::unzigzag32(z);
            appendVarint(addr_bytes_, z);
        }
    }

    lat_bytes_.reserve(n_);
    prev = 0;
    for (size_t c = 0; c < chunks; ++c) {
        dir_[c].lat_off = lat_bytes_.size();
        dir_[c].lat_prev = prev;
        const size_t lo = c * kChunkInstrs;
        const size_t hi = std::min(n_, lo + kChunkInstrs);
        for (size_t i = lo; i < hi; ++i) {
            const uint32_t z = src.readVarint32();
            prev += util::unzigzag32(z);
            appendVarint(lat_bytes_, z);
        }
    }

    aux_bytes_.reserve(n_);
    for (size_t c = 0; c < chunks; ++c) {
        dir_[c].aux_off = aux_bytes_.size();
        const size_t lo = c * kChunkInstrs;
        const size_t hi = std::min(n_, lo + kChunkInstrs);
        for (size_t i = lo; i < hi; ++i)
            appendVarint(aux_bytes_, src.readVarint32());
    }

    srcs_bytes_.shrink_to_fit();
    addr_bytes_.shrink_to_fit();
    lat_bytes_.shrink_to_fit();
    aux_bytes_.shrink_to_fit();
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
    d.srcs_off = v.srcs_bytes_.size();
    d.addr_off = v.addr_bytes_.size();
    d.lat_off = v.lat_bytes_.size();
    d.aux_off = v.aux_bytes_.size();
    d.addr_prev = addr_prev_;
    d.lat_prev = lat_prev_;

    // Meta first: the SSA check below reads producers' opcodes from
    // it, and a producer may sit earlier in this same chunk.
    v.meta_.resize(lo + count);
    uint8_t *meta = v.meta_.data();
    for (size_t j = 0; j < count; ++j) {
        const TraceInst &inst = r[j];
        if (static_cast<uint8_t>(inst.op) >= kNumOps)
            throw util::FormatError("malformed trace: bad opcode");
        if (inst.num_srcs > kMaxSrcs)
            throw util::FormatError("malformed trace: bad src count");
        meta[lo + j] = detail::packMeta(inst.op, inst.num_srcs, inst.taken);
    }
    {
        SectionWriter w(v.srcs_bytes_, count * kMaxSrcs);
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
        SectionWriter w(v.addr_bytes_, count);
        for (size_t j = 0; j < count; ++j) {
            w.put(util::zigzag32(r[j].addr - addr_prev_));
            addr_prev_ = r[j].addr;
        }
    }
    {
        SectionWriter w(v.lat_bytes_, count);
        for (size_t j = 0; j < count; ++j) {
            w.put(util::zigzag32(r[j].latency - lat_prev_));
            lat_prev_ = r[j].latency;
        }
    }
    {
        SectionWriter w(v.aux_bytes_, count);
        for (size_t j = 0; j < count; ++j)
            w.put(r[j].aux);
    }
    v.dir_.push_back(d);
    v.n_ = lo + count;
}

std::shared_ptr<const ChunkedView>
ChunkedView::Encoder::finish(std::string name)
{
    // No shrink_to_fit: past the small-allocation threshold the
    // sections' unused capacity is address space that was never
    // touched, so trimming it would only copy resident bytes.
    view_->name_ = std::move(name);
    return std::move(view_);
}

bool
operator==(const ChunkedView &a, const ChunkedView &b)
{
    return a.name_ == b.name_ && a.n_ == b.n_ && a.meta_ == b.meta_ &&
        a.srcs_bytes_ == b.srcs_bytes_ &&
        a.addr_bytes_ == b.addr_bytes_ &&
        a.lat_bytes_ == b.lat_bytes_ && a.aux_bytes_ == b.aux_bytes_ &&
        a.dir_ == b.dir_;
}

void
saveTrace(const ChunkedView &cv, util::ByteSink &sink)
{
    util::failpoint("trace_io.save");
    detail::writePrologue(sink, cv.name_, cv.n_);
    for (const std::vector<uint8_t> *section :
         {&cv.meta_, &cv.srcs_bytes_, &cv.addr_bytes_, &cv.lat_bytes_,
          &cv.aux_bytes_})
        sink.put(section->data(), section->size());
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
    const uint8_t *meta = meta_.data() + lo;
    for (size_t j = 0; j < cnt; ++j) {
        const uint8_t m = meta[j];
        out.ops[j] = static_cast<Op>(m & kMetaOpMask);
        out.fu[j] = t.fu[m];
        out.num_srcs[j] = (m >> kMetaSrcShift) & kMetaSrcMask;
    }

    VarintReader sr(srcs_bytes_.data() + d.srcs_off);
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

    VarintReader ar(addr_bytes_.data() + d.addr_off);
    uint32_t prev = d.addr_prev;
    for (size_t j = 0; j < cnt; ++j) {
        prev += util::unzigzag32(ar.next());
        out.addr[j] = prev;
    }

    VarintReader lr(lat_bytes_.data() + d.lat_off);
    prev = d.lat_prev;
    for (size_t j = 0; j < cnt; ++j) {
        prev += util::unzigzag32(lr.next());
        out.latency[j] = prev;
    }

    VarintReader xr(aux_bytes_.data() + d.aux_off);
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
    return meta_.size() + srcs_bytes_.size() + addr_bytes_.size() +
        lat_bytes_.size() + aux_bytes_.size() +
        dir_.size() * sizeof(ChunkDir) + name_.size() + flat;
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
