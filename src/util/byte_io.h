#ifndef DSMEM_UTIL_BYTE_IO_H
#define DSMEM_UTIL_BYTE_IO_H

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

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
 * An open read-only file, closed when its last holder lets go. The
 * descriptor pins the inode, so a later rename, unlink or
 * replace-by-rename of the path changes nothing it reads. Reads are
 * positional (pread) and share no file offset, so any number of
 * threads may read one ReadFile at once.
 */
class ReadFile
{
  public:
    /**
     * Open @p path for reading; nullptr when it cannot be opened.
     * Throws IoError when the opened file cannot be sized.
     */
    static std::shared_ptr<const ReadFile> open(const std::string &path)
    {
        const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd < 0)
            return nullptr;
        struct stat st;
        if (::fstat(fd, &st) != 0) {
            ::close(fd);
            throw IoError("cannot stat " + path);
        }
        return std::shared_ptr<const ReadFile>(
            new ReadFile(fd, static_cast<uint64_t>(st.st_size)));
    }

    ReadFile(const ReadFile &) = delete;
    ReadFile &operator=(const ReadFile &) = delete;
    ~ReadFile() { ::close(fd_); }

    /** The file's size when it was opened. */
    uint64_t size() const { return size_; }

    /**
     * Read up to @p n bytes at offset @p off into @p dst; returns the
     * count, short only at the end of the file. Throws IoError on a
     * read fault.
     */
    size_t readSome(void *dst, size_t n, uint64_t off) const
    {
        auto *p = static_cast<char *>(dst);
        size_t got = 0;
        while (got < n) {
            const ssize_t r = ::pread(fd_, p + got, n - got,
                                      static_cast<off_t>(off + got));
            if (r < 0) {
                if (errno == EINTR)
                    continue;
                throw IoError(std::string("file read failed: ") +
                              std::strerror(errno));
            }
            if (r == 0)
                break;
            got += static_cast<size_t>(r);
        }
        return got;
    }

    /** Read exactly @p n bytes at @p off; TruncatedError if short. */
    void readAt(void *dst, size_t n, uint64_t off) const
    {
        if (readSome(dst, n, off) != n)
            throw TruncatedError("file shorter than expected");
    }

  private:
    ReadFile(int fd, uint64_t size) : fd_(fd), size_(size) {}

    int fd_;
    uint64_t size_;
};

/**
 * The one binary reader — the read-side twin of ByteSink. It reads a
 * std::istream or a ReadFile block by block through one fixed buffer,
 * or walks bytes already in memory without copying them. Short reads
 * (truncated input) throw TruncatedError, so decoders never consume
 * garbage; each block read from a stream or file is a
 * "byte_io.refill" failpoint site.
 *
 * Checksumming is lazy: consumed-but-unhashed buffer spans are folded
 * in bulk when the buffer moves or when a hash is queried, so the
 * per-field read paths carry no hashing work at all. Two word-FNV
 * states run side by side: the stream hash (beginHash / hashValue,
 * e.g. a bundle's whole-payload checksum) and the slice hash
 * (beginSliceHash / sliceHashValue, one per chunk slice of a trace
 * section), which both fold the same bytes.
 *
 * Scanners that decode their own fields read straight from the
 * buffer: ensure(k) makes the next k bytes contiguous (fewer only at
 * the end of the input), limit() bounds them, advanceTo() consumes.
 */
class ByteSource
{
  public:
    explicit ByteSource(std::istream &is, size_t block_bytes = 1u << 16)
        : is_(&is), own_(block_bytes), buf_(own_.data())
    {
    }

    explicit ByteSource(const ReadFile &file, size_t block_bytes = 1u << 16)
        : file_(&file), own_(block_bytes), buf_(own_.data())
    {
    }

    /** Read @p size bytes at @p data in place; nothing is copied. */
    ByteSource(const uint8_t *data, size_t size)
        : buf_(data), end_(size)
    {
    }

    ByteSource(const ByteSource &) = delete;
    ByteSource &operator=(const ByteSource &) = delete;

    /** True when the source walks memory (nothing is read or copied). */
    bool inMemory() const { return is_ == nullptr && file_ == nullptr; }

    /** Bytes consumed since construction. */
    uint64_t offset() const { return base_ + pos_; }

    /** Start checksumming every byte consumed from now on. */
    void beginHash()
    {
        syncHash();
        fnv_.begin();
        hashing_ = true;
    }

    /** Word-folded FNV-1a over everything consumed since beginHash(). */
    uint64_t hashValue() const
    {
        syncHash();
        return fnv_.value();
    }

    /** Start a slice hash over the bytes consumed from now on. */
    void beginSliceHash()
    {
        syncHash();
        slice_.begin();
        slicing_ = true;
    }

    /** Word-folded FNV-1a since beginSliceHash(). */
    uint64_t sliceHashValue() const
    {
        syncHash();
        return slice_.value();
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
            std::memcpy(p, buf_ + pos_, take);
            pos_ += take;
            p += take;
            n -= take;
        }
    }

    uint8_t readByte()
    {
        if (pos_ == end_)
            refill();
        return buf_[pos_++];
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

    /** Varint that must fit 32 bits (the trace field width). */
    uint32_t readVarint32()
    {
        uint64_t v = readVarint();
        if (v > UINT32_MAX)
            throw FormatError("malformed varint");
        return static_cast<uint32_t>(v);
    }

    /**
     * Make the next @p k bytes contiguous at the returned cursor
     * (fewer only where the input ends: limit() says how many) —
     * compacting the buffer, growing it past its block size only for
     * a wider @p k, and reading on. Pointers into the buffer from
     * before the call are invalid after it.
     */
    const uint8_t *ensure(size_t k)
    {
        if (end_ - pos_ < k) [[unlikely]]
            fill(k);
        return buf_ + pos_;
    }

    /** One past the last buffered byte. */
    const uint8_t *limit() const { return buf_ + end_; }

    /** Consume up to @p p, a cursor within [ensure(), limit()]. */
    void advanceTo(const uint8_t *p)
    {
        pos_ = static_cast<size_t>(p - buf_);
    }

    /**
     * Consume @p n bytes and return where they start. Only in-memory
     * sources keep them valid past the next read.
     */
    const uint8_t *take(size_t n)
    {
        const uint8_t *at = ensure(n);
        if (end_ - pos_ < n)
            throw TruncatedError("byte source truncated");
        pos_ += n;
        return at;
    }

    /**
     * Upper bound on the bytes still readable (buffered plus whatever
     * the underlying input holds), or UINT64_MAX when a stream is not
     * seekable. Decoders check length prefixes against this before
     * reserving, so a corrupt count can never drive an unbounded
     * allocation. Exact for memory and file sources.
     */
    uint64_t remainingBound()
    {
        const uint64_t buffered = end_ - pos_;
        if (file_ != nullptr)
            return file_->size() - std::min(file_->size(),
                                            base_ + end_) + buffered;
        if (is_ == nullptr)
            return buffered;
        // Once a read drains the stream, the final short read left
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

    /** True once the underlying input AND the buffer are exhausted. */
    bool atEof()
    {
        if (pos_ != end_)
            return false;
        if (file_ != nullptr)
            return base_ + end_ >= file_->size();
        if (is_ == nullptr)
            return true;
        int c = is_->peek();
        return c == std::char_traits<char>::eof();
    }

    /**
     * Everything left, in one buffer: sized once from the bytes the
     * input holds when that is knowable (so a corrupt length field
     * inside can never size it), grown block by block when it is not.
     * Throws IoError when a stream fails before its end.
     */
    std::vector<uint8_t> readRest()
    {
        std::vector<uint8_t> out(buf_ + pos_, buf_ + end_);
        pos_ = end_;
        syncHash();
        const uint64_t bound = remainingBound();
        if (bound != UINT64_MAX)
            out.reserve(static_cast<size_t>(bound));
        const size_t block = std::max<size_t>(own_.size(), 1);
        while (!inMemory()) {
            const size_t want = out.capacity() > out.size()
                ? out.capacity() - out.size()
                : block;
            const size_t at = out.size();
            out.resize(at + want);
            const size_t got = readInto(out.data() + at, want);
            out.resize(at + got);
            base_ += got;
            if (got < want || atEof())
                break;
        }
        return out;
    }

  private:
    /** Fold the consumed-but-unhashed buffer span into the digests. */
    void syncHash() const
    {
        if (hmark_ == pos_)
            return;
        if (hashing_)
            fnv_.update(buf_ + hmark_, pos_ - hmark_);
        if (slicing_)
            slice_.update(buf_ + hmark_, pos_ - hmark_);
        hmark_ = pos_;
    }

    /**
     * One read from the stream or file into @p dst: up to @p n bytes,
     * short only at the end. The "byte_io.refill" failpoint site.
     */
    size_t readInto(uint8_t *dst, size_t n)
    {
        if (failpointsArmed()) [[unlikely]]
            failpoint("byte_io.refill");
        if (file_ != nullptr)
            return file_->readSome(dst, n, base_ + end_);
        is_->read(reinterpret_cast<char *>(dst),
                  static_cast<std::streamsize>(n));
        if (is_->bad())
            throw IoError("byte source read failed");
        return static_cast<size_t>(is_->gcount());
    }

    /** Buffer at least @p k unread bytes unless the input ends first. */
    void fill(size_t k)
    {
        if (inMemory())
            return;
        syncHash();
        const size_t keep = end_ - pos_;
        std::memmove(own_.data(), own_.data() + pos_, keep);
        base_ += pos_;
        pos_ = 0;
        hmark_ = 0;
        end_ = keep;
        if (own_.size() < k) {
            own_.resize(k);
            buf_ = own_.data();
        }
        while (end_ < k) {
            const size_t got =
                readInto(own_.data() + end_, own_.size() - end_);
            if (got == 0)
                return;
            end_ += got;
        }
    }

    void refill()
    {
        fill(1);
        if (pos_ == end_)
            throw TruncatedError("byte source truncated");
    }

    std::istream *is_ = nullptr;
    const ReadFile *file_ = nullptr;
    std::vector<uint8_t> own_; ///< The block buffer (stream and file).
    const uint8_t *buf_;       ///< own_, or the in-memory bytes.
    size_t pos_ = 0;
    size_t end_ = 0;
    uint64_t base_ = 0; ///< Input offset of buf_[0].
    // Lazy checksum state: buffer offset of the first unhashed byte,
    // mutated from const accessors.
    mutable size_t hmark_ = 0;
    mutable FnvState fnv_;
    mutable FnvState slice_;
    bool hashing_ = false;
    bool slicing_ = false;
};

} // namespace dsmem::util

#endif // DSMEM_UTIL_BYTE_IO_H
