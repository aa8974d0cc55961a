#ifndef DSMEM_UTIL_BYTE_IO_H
#define DSMEM_UTIL_BYTE_IO_H

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "util/errors.h"
#include "util/failpoint.h"

namespace dsmem::util {

/** FNV-1a initial state / multiplier (shared by every checksummer). */
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** One FNV-1a step over @p n bytes starting from state @p h. */
inline uint64_t
fnv1aUpdate(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** ZigZag mapping so small signed deltas varint-encode in one byte. */
inline constexpr uint32_t
zigzag32(uint32_t v)
{
    // Interpret as signed two's complement without UB.
    return (v << 1) ^ (0u - (v >> 31));
}

inline constexpr uint32_t
unzigzag32(uint32_t z)
{
    return (z >> 1) ^ (0u - (z & 1u));
}

/** Longest LEB128 encoding of a 64-bit value. */
inline constexpr size_t kMaxVarintBytes = 10;

/**
 * LEB128 (7 value bits per byte, high bit = continuation): write @p v
 * at @p p, which has room for kMaxVarintBytes, and return the end.
 * The one varint encoder: the trace writer (through ByteSink) and
 * ChunkedView's resident sections both use it.
 */
inline uint8_t *
encodeVarint(uint8_t *p, uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<uint8_t>(v) | 0x80;
        v >>= 7;
    }
    *p++ = static_cast<uint8_t>(v);
    return p;
}

/**
 * Streaming FNV-1a state folded over little-endian 64-bit words: one
 * xor-multiply per 8 bytes, with the final partial word zero-extended.
 * Classic per-byte FNV-1a (fnv1aUpdate) has a serial multiply chain
 * that tops out around 1.4 ns/byte; the word fold is the same
 * primitive an order of magnitude cheaper, and still catches flips,
 * truncations, and reorderings. The result depends only on the byte
 * stream, not on how update() calls split it.
 */
class FnvState
{
  public:
    void begin()
    {
        hash_ = kFnvOffset;
        pend_ = 0;
        pend_len_ = 0;
    }

    void update(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        while (pend_len_ != 0 && n > 0) {
            pend_ |= static_cast<uint64_t>(*p++) << (8 * pend_len_);
            --n;
            if (++pend_len_ == 8) {
                hash_ = (hash_ ^ pend_) * kFnvPrime;
                pend_ = 0;
                pend_len_ = 0;
            }
        }
        while (n >= 8) {
            uint64_t w;
            std::memcpy(&w, p, 8);
            hash_ = (hash_ ^ w) * kFnvPrime;
            p += 8;
            n -= 8;
        }
        while (n > 0) {
            pend_ |= static_cast<uint64_t>(*p++) << (8 * pend_len_++);
            --n;
        }
    }

    /** Current digest; folds a zero-extended partial tail word. */
    uint64_t value() const
    {
        if (pend_len_ != 0)
            return (hash_ ^ pend_) * kFnvPrime;
        return hash_;
    }

  private:
    uint64_t hash_ = kFnvOffset;
    uint64_t pend_ = 0;
    unsigned pend_len_ = 0;
};

/**
 * Block-buffered binary writer over a std::ostream.
 *
 * Serialization hot paths (trace and bundle I/O) append millions of
 * small fields; issuing one ostream::write per field costs a virtual
 * dispatch plus sentry locking each time. The sink batches everything
 * into one block and optionally checksums the stream with a word-
 * folded FNV-1a state, so whole-payload checksums never require
 * buffering the payload.
 *
 * Checksumming is lazy, as in ByteSource: the written-but-unhashed
 * buffer span is folded in bulk when the block drains or when
 * hashValue() is queried, so the per-field write paths (putByte,
 * putVarint) carry no hashing work at all. putVarint encodes straight
 * into the block when it has room for the longest encoding.
 *
 * Errors surface as std::runtime_error on flush (and destruction
 * flushes, swallowing errors — call flush() explicitly on paths that
 * must detect them).
 */
class ByteSink
{
  public:
    explicit ByteSink(std::ostream &os, size_t block_bytes = 1u << 16)
        : os_(&os), buf_(block_bytes)
    {
    }

    ByteSink(const ByteSink &) = delete;
    ByteSink &operator=(const ByteSink &) = delete;

    ~ByteSink()
    {
        try {
            flush();
        } catch (...) {
            // Destructor flush is best-effort.
        }
    }

    /** Start (or restart) checksumming every byte written from now on. */
    void beginHash()
    {
        fnv_.begin();
        hmark_ = pos_;
        hashing_ = true;
    }

    /** Word-folded FNV-1a over everything written since beginHash(). */
    uint64_t hashValue() const
    {
        syncHash();
        return fnv_.value();
    }

    void put(const void *data, size_t n)
    {
        const char *p = static_cast<const char *>(data);
        while (n > 0) {
            if (pos_ == buf_.size())
                drain();
            size_t take = buf_.size() - pos_;
            if (take > n)
                take = n;
            std::memcpy(buf_.data() + pos_, p, take);
            pos_ += take;
            p += take;
            n -= take;
        }
    }

    void putByte(uint8_t b)
    {
        if (pos_ == buf_.size())
            drain();
        buf_[pos_++] = static_cast<char>(b);
    }

    void putU32(uint32_t v) { put(&v, 4); }

    void putU64(uint64_t v) { put(&v, 8); }

    /** LEB128 (encodeVarint). */
    void putVarint(uint64_t v)
    {
        if (buf_.size() - pos_ >= kMaxVarintBytes) [[likely]] {
            auto *p = reinterpret_cast<uint8_t *>(buf_.data() + pos_);
            pos_ += static_cast<size_t>(encodeVarint(p, v) - p);
            return;
        }
        uint8_t tmp[kMaxVarintBytes];
        put(tmp, static_cast<size_t>(encodeVarint(tmp, v) - tmp));
    }

    /** Write out any buffered bytes; throws IoError on failure. */
    void flush()
    {
        drain();
        if (!*os_)
            throw IoError("byte sink write failed");
    }

  private:
    /** Fold the written-but-unhashed buffer span into the digest. */
    void syncHash() const
    {
        if (!hashing_ || hmark_ == pos_)
            return;
        fnv_.update(buf_.data() + hmark_, pos_ - hmark_);
        hmark_ = pos_;
    }

    void drain()
    {
        syncHash();
        hmark_ = 0;
        if (pos_ > 0) {
            size_t n = pos_;
            pos_ = 0;
            // Injected short write: half the block lands, then the
            // stream fails — the torn-file shape a full disk or a
            // kill mid-write produces.
            if (failpointsArmed() &&
                failpointShortWrite("byte_io.drain")) [[unlikely]] {
                os_->write(buf_.data(),
                           static_cast<std::streamsize>(n / 2));
                os_->setstate(std::ios::failbit);
                return;
            }
            os_->write(buf_.data(), static_cast<std::streamsize>(n));
        }
    }

    std::ostream *os_;
    std::vector<char> buf_;
    size_t pos_ = 0;
    // Lazy checksum state: buffer offset of the first unhashed byte,
    // mutated from const accessors.
    mutable size_t hmark_ = 0;
    mutable FnvState fnv_;
    bool hashing_ = false;
};

/**
 * Block-buffered binary reader over a std::istream — the read-side
 * twin of ByteSink. Short reads (truncated files) throw immediately,
 * so decoders never consume garbage.
 *
 * Checksumming is lazy: consumed-but-unhashed buffer spans are folded
 * in bulk when the buffer refills or when hashValue() is queried, so
 * the per-field read paths (readByte, readVarint) carry no hashing
 * work at all. readVarint additionally decodes straight from the
 * buffer when enough bytes are resident, which is the common case for
 * the varint-dense trace sections.
 */
class ByteSource
{
  public:
    explicit ByteSource(std::istream &is, size_t block_bytes = 1u << 16)
        : is_(&is), buf_(block_bytes)
    {
    }

    ByteSource(const ByteSource &) = delete;
    ByteSource &operator=(const ByteSource &) = delete;

    /** Start checksumming every byte consumed from now on. */
    void beginHash()
    {
        fnv_.begin();
        hmark_ = pos_;
        hashing_ = true;
    }

    /** Word-folded FNV-1a over everything consumed since beginHash(). */
    uint64_t hashValue() const
    {
        syncHash();
        return fnv_.value();
    }

    void read(void *data, size_t n)
    {
        char *p = static_cast<char *>(data);
        while (n > 0) {
            if (pos_ == end_)
                refill();
            size_t take = end_ - pos_;
            if (take > n)
                take = n;
            std::memcpy(p, buf_.data() + pos_, take);
            pos_ += take;
            p += take;
            n -= take;
        }
    }

    uint8_t readByte()
    {
        if (pos_ == end_)
            refill();
        return static_cast<uint8_t>(buf_[pos_++]);
    }

    uint32_t readU32()
    {
        uint32_t v;
        read(&v, 4);
        return v;
    }

    uint64_t readU64()
    {
        uint64_t v;
        read(&v, 8);
        return v;
    }

    /** LEB128 decode; rejects encodings longer than 64 bits carry. */
    uint64_t readVarint()
    {
        if (pos_ < end_) [[likely]] {
            uint8_t b = static_cast<uint8_t>(buf_[pos_]);
            if (b < 0x80) {
                ++pos_;
                return b;
            }
            if (end_ - pos_ >= kMaxVarintBytes)
                return readVarintBuffered();
        }
        return readVarintSlow();
    }

    /** Varint that must fit 32 bits (the trace field width). */
    uint32_t readVarint32()
    {
        uint64_t v = readVarint();
        if (v > UINT32_MAX)
            throw FormatError("malformed varint");
        return static_cast<uint32_t>(v);
    }

    /**
     * Upper bound on the bytes still readable (buffered plus whatever
     * the underlying stream holds), or UINT64_MAX when the stream is
     * not seekable. Decoders check length prefixes against this
     * before reserving, so a corrupt count can never drive an
     * unbounded allocation.
     */
    uint64_t remainingBound()
    {
        uint64_t buffered = end_ - pos_;
        // Once refill() drains the stream, the final short read left
        // eofbit|failbit set and tellg() reports -1 — but nothing
        // beyond the buffer is obtainable, so `buffered` is the exact
        // bound. Treating this as "unknowable" would disable the
        // stream-size check right when a small (fully buffered)
        // corrupt input needs it most.
        if (!is_->good())
            return buffered;
        std::streampos cur = is_->tellg();
        if (cur == std::streampos(-1))
            return UINT64_MAX;
        is_->seekg(0, std::ios::end);
        std::streampos end = is_->tellg();
        is_->seekg(cur);
        if (end == std::streampos(-1) || !*is_ || end < cur)
            return UINT64_MAX;
        return buffered + static_cast<uint64_t>(end - cur);
    }

    /** True once the underlying stream is exhausted AND the buffer is. */
    bool atEof()
    {
        if (pos_ != end_)
            return false;
        int c = is_->peek();
        return c == std::char_traits<char>::eof();
    }

  private:
    /** Fold the consumed-but-unhashed buffer span into the digest. */
    void syncHash() const
    {
        if (!hashing_ || hmark_ == pos_)
            return;
        fnv_.update(buf_.data() + hmark_, pos_ - hmark_);
        hmark_ = pos_;
    }

    void refill()
    {
        syncHash();
        if (failpointsArmed()) [[unlikely]]
            failpoint("byte_io.refill");
        is_->read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
        pos_ = 0;
        hmark_ = 0;
        end_ = static_cast<size_t>(is_->gcount());
        if (end_ == 0)
            throw TruncatedError("byte source truncated");
    }

    /** Multi-byte decode with all bytes known resident. */
    uint64_t readVarintBuffered()
    {
        const auto *p = reinterpret_cast<const uint8_t *>(buf_.data()) + pos_;
        uint64_t v = p[0] & 0x7F;
        unsigned shift = 7;
        size_t i = 1;
        uint8_t b;
        do {
            b = p[i++];
            v |= static_cast<uint64_t>(b & 0x7F) << shift;
            shift += 7;
        } while ((b & 0x80) != 0 && shift < 70);
        // The 10th byte must terminate and may only carry the final
        // value bit.
        if ((b & 0x80) != 0 || (shift == 70 && b > 1))
            throw FormatError("malformed varint");
        pos_ += i;
        return v;
    }

    /** Byte-at-a-time decode across a buffer boundary. */
    uint64_t readVarintSlow()
    {
        uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            uint8_t b = readByte();
            v |= static_cast<uint64_t>(b & 0x7F) << shift;
            if ((b & 0x80) == 0) {
                if (shift == 63 && b > 1)
                    throw FormatError("malformed varint");
                return v;
            }
        }
        throw FormatError("malformed varint");
    }

    std::istream *is_;
    std::vector<char> buf_;
    size_t pos_ = 0;
    size_t end_ = 0;
    // Lazy checksum state: buffer offset of the first unhashed byte,
    // mutated from const accessors.
    mutable size_t hmark_ = 0;
    mutable FnvState fnv_;
    bool hashing_ = false;
};

/**
 * Bounds-checked little-endian cursor over bytes already in memory:
 * the in-memory twin of ByteSource that the bundle and trace loaders
 * parse a whole file with once it has been read (readAll). Reading
 * past the end throws TruncatedError.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size)
        : p_(data), end_(data + size)
    {
    }

    size_t remaining() const { return static_cast<size_t>(end_ - p_); }

    /** The next unread byte. */
    const uint8_t *position() const { return p_; }

    void read(void *data, size_t n)
    {
        std::memcpy(data, take(n), n);
    }

    uint8_t readByte() { return *take(1); }

    uint32_t readU32()
    {
        uint32_t v;
        read(&v, 4);
        return v;
    }

    uint64_t readU64()
    {
        uint64_t v;
        read(&v, 8);
        return v;
    }

    /** LEB128 decode; rejects encodings longer than 64 bits carry. */
    uint64_t readVarint()
    {
        uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            const uint8_t b = readByte();
            v |= static_cast<uint64_t>(b & 0x7F) << shift;
            if ((b & 0x80) == 0) {
                if (shift == 63 && b > 1)
                    throw FormatError("malformed varint");
                return v;
            }
        }
        throw FormatError("malformed varint");
    }

    /** Consume @p n bytes and return where they start. */
    const uint8_t *take(size_t n)
    {
        if (n > remaining())
            throw TruncatedError("byte reader truncated");
        const uint8_t *at = p_;
        p_ += n;
        return at;
    }

  private:
    const uint8_t *p_;
    const uint8_t *end_;
};

/**
 * Everything left in @p is, read into one buffer: sized once from the
 * bytes the stream actually holds when it is seekable (so a corrupt
 * length field inside can never size it), grown block by block when
 * it is not. Each read from the stream is a "byte_io.refill"
 * failpoint site, like ByteSource's; throws IoError when the stream
 * fails before its end.
 */
inline std::vector<uint8_t>
readAll(std::istream &is, size_t block_bytes = 1u << 16)
{
    std::vector<uint8_t> out;
    const std::streampos cur = is.tellg();
    if (cur != std::streampos(-1)) {
        is.seekg(0, std::ios::end);
        const std::streampos end = is.tellg();
        is.seekg(cur);
        if (end != std::streampos(-1) && end > cur)
            out.reserve(static_cast<size_t>(end - cur));
    }
    for (;;) {
        if (failpointsArmed()) [[unlikely]]
            failpoint("byte_io.refill");
        const size_t want = out.capacity() > out.size()
            ? out.capacity() - out.size()
            : block_bytes;
        const size_t at = out.size();
        out.resize(at + want);
        is.read(reinterpret_cast<char *>(out.data() + at),
                static_cast<std::streamsize>(want));
        const size_t got = static_cast<size_t>(is.gcount());
        out.resize(at + got);
        if (got < want) {
            if (is.bad())
                throw IoError("byte source read failed");
            return out;
        }
        // Filled exactly: grow only if the stream holds more.
        if (is.peek() == std::char_traits<char>::eof())
            return out;
    }
}

} // namespace dsmem::util

#endif // DSMEM_UTIL_BYTE_IO_H
