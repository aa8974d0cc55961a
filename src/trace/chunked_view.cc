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

/**
 * Reads the varints of a section being validated from a ByteSource,
 * straight out of its buffer: each value needs at most
 * kMaxVarint32Bytes contiguous bytes, which ensure() provides (fewer
 * only where the input ends, which checkVarint32 then refuses as a
 * truncation). Holds the cursor itself; sync() hands it back before
 * the source's offset or hashes are read.
 */
class VarintScan
{
  public:
    explicit VarintScan(util::ByteSource &in) : in_(in) { reload(); }

    uint32_t next()
    {
        if (static_cast<size_t>(lim_ - p_) < kMaxVarint32Bytes)
            [[unlikely]] {
            in_.advanceTo(p_);
            reload();
        }
        uint32_t v;
        p_ = checkVarint32(p_, lim_, v);
        return v;
    }

    util::ByteSource &sync()
    {
        in_.advanceTo(p_);
        return in_;
    }

  private:
    void reload()
    {
        p_ = in_.ensure(kMaxVarint32Bytes);
        lim_ = in_.limit();
    }

    util::ByteSource &in_;
    const uint8_t *p_;
    const uint8_t *lim_;
};

/** Word-FNV of @p n bytes at @p p: a slice's hash. */
uint64_t
sliceHash(const uint8_t *p, size_t n)
{
    util::FnvState h;
    h.update(p, n);
    return h.value();
}

} // namespace

ChunkedView::ChunkedView(const TraceView &v) : ChunkedView(encodeView(v), 0)
{
}

ChunkedView::ChunkedView(std::vector<uint8_t> bytes, size_t at)
    : bytes_(std::move(bytes))
{
    if (at > bytes_.size())
        throw std::logic_error("ChunkedView: trace offset past the bytes");
    util::ByteSource in(bytes_.data(), bytes_.size());
    in.take(at);
    scan(in);
    if (!in.atEof())
        throw util::FormatError(
            "malformed trace: bytes after the aux section");
}

ChunkedView::ChunkedView(util::ByteSource &in,
                         std::shared_ptr<const util::ReadFile> file,
                         std::shared_ptr<FetchStats> stats)
    : file_(std::move(file)), stats_(std::move(stats))
{
    if (!file_ || in.inMemory())
        throw std::logic_error("ChunkedView: a file load needs its file");
    scan(in);
}

void
ChunkedView::scan(util::ByteSource &in)
{
    n_ = detail::readPrologue(in, name_);
    const size_t chunks = (n_ + kChunkInstrs - 1) / kChunkInstrs;
    dir_.resize(chunks);
    // A file-backed view hashes each (chunk, section) slice as the
    // pass consumes it; an in-memory one keeps the bytes instead.
    const bool hashing = file_ != nullptr;
    if (hashing)
        hashes_.resize(chunks * kSections);
    auto sliceBegin = [&](util::ByteSource &src) {
        if (hashing)
            src.beginSliceHash();
    };
    auto sliceEnd = [&](util::ByteSource &src, size_t c, Section s) {
        if (hashing)
            hashes_[c * kSections + s] = src.sliceHashValue();
    };

    // One pass over the sections in file order (meta, srcs, addr,
    // latency, aux): validate every value as the Encoder does when it
    // writes one, and record where each chunk's slice of each section
    // starts plus the delta accumulators entering it. In memory the
    // bytes stay as read; from a file only the meta section is held,
    // for the SSA checks, until the pass ends.
    sec_[kMeta] = in.offset();
    std::vector<uint8_t> held;
    const uint8_t *meta;
    if (in.inMemory()) {
        meta = in.take(n_);
    } else {
        held.resize(n_);
        for (size_t c = 0; c < chunks; ++c) {
            sliceBegin(in);
            in.read(held.data() + chunkBase(c), chunkLength(c));
            sliceEnd(in, c, kMeta);
        }
        meta = held.data();
    }
    for (size_t i = 0; i < n_; ++i) {
        if ((meta[i] & kMetaOpMask) >= kNumOps)
            throw util::FormatError("malformed trace: bad opcode");
    }

    VarintScan vs(in);
    sec_[kSrcs] = in.offset();
    for (size_t c = 0; c < chunks; ++c) {
        dir_[c].srcs_off = vs.sync().offset() - sec_[kSrcs];
        sliceBegin(vs.sync());
        const size_t hi = chunkBase(c) + chunkLength(c);
        for (size_t i = chunkBase(c); i < hi; ++i) {
            const uint8_t ns = (meta[i] >> kMetaSrcShift) & kMetaSrcMask;
            for (uint8_t s = 0; s < ns; ++s) {
                const uint32_t delta = vs.next();
                if (!validSource(static_cast<uint32_t>(i) - delta, i,
                                 meta))
                    throw util::FormatError(
                        "malformed trace: SSA check failed");
            }
        }
        sliceEnd(vs.sync(), c, kSrcs);
    }

    // Address and latency: zigzag deltas whose accumulators seed
    // each chunk's decode.
    for (Section sec : {kAddr, kLat}) {
        sec_[sec] = vs.sync().offset();
        uint32_t prev = 0;
        for (size_t c = 0; c < chunks; ++c) {
            ChunkDir &d = dir_[c];
            (sec == kAddr ? d.addr_off : d.lat_off) =
                vs.sync().offset() - sec_[sec];
            (sec == kAddr ? d.addr_prev : d.lat_prev) = prev;
            sliceBegin(vs.sync());
            for (size_t j = chunkLength(c); j > 0; --j)
                prev += util::unzigzag32(vs.next());
            sliceEnd(vs.sync(), c, sec);
        }
    }

    sec_[kAux] = vs.sync().offset();
    for (size_t c = 0; c < chunks; ++c) {
        dir_[c].aux_off = vs.sync().offset() - sec_[kAux];
        sliceBegin(vs.sync());
        for (size_t j = chunkLength(c); j > 0; --j)
            vs.next();
        sliceEnd(vs.sync(), c, kAux);
    }
    sec_[kSections] = vs.sync().offset();
}

std::shared_ptr<const ChunkedView>
ChunkedView::inFile(std::shared_ptr<const util::ReadFile> file,
                    uint64_t body_at, std::shared_ptr<FetchStats> stats) const
{
    if (fileBacked())
        throw std::logic_error("ChunkedView::inFile: already file-backed");
    std::shared_ptr<ChunkedView> v(new ChunkedView());
    v->name_ = name_;
    v->n_ = n_;
    v->dir_ = dir_;
    for (size_t s = 0; s <= kSections; ++s)
        v->sec_[s] = body_at + (sec_[s] - sec_[kMeta]);
    v->hashes_.resize(dir_.size() * kSections);
    for (size_t c = 0; c < dir_.size(); ++c)
        for (size_t s = 0; s < kSections; ++s) {
            const Section sec = static_cast<Section>(s);
            v->hashes_[c * kSections + s] = sliceHash(
                bytes_.data() + sec_[s] + sliceOff(c, sec),
                static_cast<size_t>(sliceLen(c, sec)));
        }
    v->file_ = std::move(file);
    v->stats_ = std::move(stats);
    return v;
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
    using CV = ChunkedView;
    if (a.name_ != b.name_ || a.n_ != b.n_ || !(a.dir_ == b.dir_))
        return false;
    for (size_t k = CV::kSrcs; k <= CV::kSections; ++k)
        if (a.sec_[k] - a.sec_[CV::kMeta] != b.sec_[k] - b.sec_[CV::kMeta])
            return false;
    std::vector<uint8_t> sa, sb;
    for (size_t c = 0; c < a.chunkCount(); ++c) {
        const CV::Slices x = a.fetch(c, TileColumns::kAll, sa);
        const CV::Slices y = b.fetch(c, TileColumns::kAll, sb);
        for (size_t s = 0; s < CV::kSections; ++s) {
            const size_t len = static_cast<size_t>(
                a.sliceLen(c, static_cast<CV::Section>(s)));
            if (!std::equal(x.at[s], x.at[s] + len, y.at[s]))
                return false;
        }
    }
    return true;
}

void
saveTrace(const ChunkedView &cv, util::ByteSink &sink)
{
    util::failpoint("trace_io.save");
    detail::writePrologue(sink, cv.name_, cv.n_);
    if (!cv.fileBacked()) {
        sink.put(cv.bytes_.data() + cv.sec_[ChunkedView::kMeta],
                 cv.bodyBytes());
        return;
    }
    // Section by section in file order, one verified slice at a time.
    std::vector<uint8_t> slice;
    for (size_t s = 0; s < ChunkedView::kSections; ++s) {
        const auto sec = static_cast<ChunkedView::Section>(s);
        for (size_t c = 0; c < cv.chunkCount(); ++c) {
            slice.resize(static_cast<size_t>(cv.sliceLen(c, sec)));
            cv.readSlice(c, sec, slice.data());
            sink.put(slice.data(), slice.size());
        }
    }
}

uint64_t
ChunkedView::sliceOff(size_t c, Section s) const
{
    if (c == dir_.size())
        return sec_[s + 1] - sec_[s];
    switch (s) {
      case kMeta:
        return chunkBase(c);
      case kSrcs:
        return dir_[c].srcs_off;
      case kAddr:
        return dir_[c].addr_off;
      case kLat:
        return dir_[c].lat_off;
      default:
        return dir_[c].aux_off;
    }
}

size_t
ChunkedView::passBytes(TileColumns cols) const
{
    size_t total = 0;
    for (size_t s = 0; s < kSections; ++s)
        if (reads(cols, static_cast<Section>(s)))
            total += static_cast<size_t>(sec_[s + 1] - sec_[s]);
    return total;
}

void
ChunkedView::readSlice(size_t c, Section s, uint8_t *dst) const
{
    const size_t len = static_cast<size_t>(sliceLen(c, s));
    file_->readAt(dst, len, sec_[s] + sliceOff(c, s));
    if (sliceHash(dst, len) == hashes_[c * kSections + s])
        return;
    if (stats_)
        stats_->verify_failures.fetch_add(1, std::memory_order_relaxed);
    throw util::FormatError("trace '" + name_ + "' chunk " +
                            std::to_string(c) +
                            ": its bundle file no longer holds the bytes "
                            "it was loaded from");
}

ChunkedView::Slices
ChunkedView::fetch(size_t c, TileColumns cols,
                   std::vector<uint8_t> &scratch) const
{
    Slices out{};
    if (!fileBacked()) {
        for (size_t s = 0; s < kSections; ++s)
            out.at[s] = bytes_.data() + sec_[s] +
                sliceOff(c, static_cast<Section>(s));
        return out;
    }
    if (util::failpointsArmed()) [[unlikely]]
        util::failpoint("trace_io.fetch");
    size_t total = 0;
    for (size_t s = 0; s < kSections; ++s)
        if (reads(cols, static_cast<Section>(s)))
            total += static_cast<size_t>(
                sliceLen(c, static_cast<Section>(s)));
    if (scratch.size() < total)
        scratch.resize(total);
    size_t at = 0;
    for (size_t s = 0; s < kSections; ++s) {
        if (!reads(cols, static_cast<Section>(s)))
            continue;
        const auto sec = static_cast<Section>(s);
        out.at[s] = scratch.data() + at;
        readSlice(c, sec, scratch.data() + at);
        at += static_cast<size_t>(sliceLen(c, sec));
    }
    if (stats_) {
        stats_->fetches.fetch_add(1, std::memory_order_relaxed);
        stats_->bytes.fetch_add(total, std::memory_order_relaxed);
    }
    return out;
}

void
ChunkedView::decodeChunk(size_t c, TraceTile &tile, TileColumns cols) const
{
    const size_t cnt = chunkLength(c);
    const Slices in = fetch(c, cols, tile.fetched);
    tile.base = chunkBase(c);
    tile.count = cnt;
    tile.ops.resize(cnt);
    tile.num_srcs.resize(cnt);
    tile.srcs.resize(cnt);
    tile.latency.resize(cnt);
    tile.aux.resize(cnt);
    if (cols == TileColumns::kAll) {
        tile.fu.resize(cnt);
        tile.flags.resize(cnt);
        tile.addr.resize(cnt);
    }
    decodeInto(c, in,
               Columns{tile.ops.data(), tile.fu.data(), tile.flags.data(),
                       tile.num_srcs.data(), tile.srcs.data(),
                       tile.addr.data(), tile.latency.data(),
                       tile.aux.data()},
               cols);
}

void
ChunkedView::decodeInto(size_t c, const Slices &in, const Columns &out,
                        TileColumns cols) const
{
    const ChunkDir &d = dir_[c];
    const size_t lo = chunkBase(c);
    const size_t cnt = chunkLength(c);
    const bool all = cols == TileColumns::kAll;

    const MetaTables &t = metaTables();
    const uint8_t *meta = in.at[kMeta];
    if (all) {
        for (size_t j = 0; j < cnt; ++j) {
            const uint8_t m = meta[j];
            out.ops[j] = static_cast<Op>(m & kMetaOpMask);
            out.fu[j] = t.fu[m];
            out.num_srcs[j] = (m >> kMetaSrcShift) & kMetaSrcMask;
        }
    } else {
        for (size_t j = 0; j < cnt; ++j) {
            const uint8_t m = meta[j];
            out.ops[j] = static_cast<Op>(m & kMetaOpMask);
            out.num_srcs[j] = (m >> kMetaSrcShift) & kMetaSrcMask;
        }
    }

    VarintReader sr(in.at[kSrcs]);
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

    uint32_t prev;
    if (all) {
        VarintReader ar(in.at[kAddr]);
        prev = d.addr_prev;
        for (size_t j = 0; j < cnt; ++j) {
            prev += util::unzigzag32(ar.next());
            out.addr[j] = prev;
        }
    }

    VarintReader lr(in.at[kLat]);
    prev = d.lat_prev;
    for (size_t j = 0; j < cnt; ++j) {
        prev += util::unzigzag32(lr.next());
        out.latency[j] = prev;
    }

    VarintReader xr(in.at[kAux]);
    for (size_t j = 0; j < cnt; ++j)
        out.aux[j] = xr.next();

    if (!all)
        return;
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
    const size_t sections = fileBacked() ? 0 : bodyBytes();
    return sections + dir_.size() * sizeof(ChunkDir) +
        hashes_.size() * sizeof(uint64_t) + name_.size() + flat;
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
    // columns need no second check; a file-backed view fetches (and
    // verifies) each chunk as it goes.
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
    std::vector<uint8_t> scratch;
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
        decodeInto(c, fetch(c, TileColumns::kAll, scratch),
                   Columns{v->ops_.data() + lo, v->fu_.data() + lo,
                           v->flags_.data() + lo,
                           v->num_srcs_.data() + lo,
                           v->srcs_.data() + lo, v->addr_.data() + lo,
                           v->latency_.data() + lo,
                           v->aux_.data() + lo},
                   TileColumns::kAll);
    }
    flat_ = std::move(v);
    return flat_;
}

} // namespace dsmem::trace
