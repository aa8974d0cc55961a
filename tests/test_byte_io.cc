/**
 * @file
 * Tests for the block-buffered binary I/O layer (util/byte_io.h) that
 * the v2 trace and bundle formats stream through: varint encode/decode
 * (including every malformed-encoding rejection), zigzag mapping, the
 * two FNV-1a folding granularities, and the lazy checksums of both
 * the sink and the source — all exercised across buffer-drain and
 * refill boundaries, where the fast and slow paths diverge.
 */

#include "util/byte_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "apps/rng.h"
#include "random_trace.h"
#include "runner/trace_store.h"
#include "util/failpoint.h"

namespace dsmem::util {
namespace {

/** Values straddling every varint length from 1 to 10 bytes. */
const std::vector<uint64_t> kVarintProbes = {
    0,       1,          127,        128,         300,
    16383,   16384,      (1u << 21) - 1, 1u << 21, UINT32_MAX,
    1ull << 32, 1ull << 48, 1ull << 62, 1ull << 63, UINT64_MAX};

TEST(VarintTest, RoundTripsEveryLength)
{
    std::stringstream ss;
    {
        ByteSink sink(ss);
        for (uint64_t v : kVarintProbes)
            sink.putVarint(v);
        sink.flush();
    }
    ByteSource src(ss);
    for (uint64_t v : kVarintProbes)
        EXPECT_EQ(src.readVarint(), v);
    EXPECT_TRUE(src.atEof());
}

TEST(VarintTest, RoundTripsAcrossTinyRefills)
{
    // A 3-byte block buffer forces multi-byte varints to span refills,
    // driving the byte-at-a-time slow path; results must not differ.
    std::stringstream ss;
    {
        ByteSink sink(ss, /*block_bytes=*/3);
        for (uint64_t v : kVarintProbes)
            sink.putVarint(v);
        sink.flush();
    }
    ByteSource src(ss, /*block_bytes=*/3);
    for (uint64_t v : kVarintProbes)
        EXPECT_EQ(src.readVarint(), v);
}

TEST(VarintTest, RejectsOverlongEncoding)
{
    // Eleven continuation bytes: no 64-bit value needs more than ten.
    std::string overlong(11, static_cast<char>(0x80));
    overlong.push_back(0x01);
    for (size_t block : {size_t{64}, size_t{2}}) {
        std::stringstream ss(overlong);
        ByteSource src(ss, block);
        EXPECT_THROW(src.readVarint(), std::runtime_error)
            << "block " << block;
    }
}

TEST(VarintTest, RejectsOverflowingTenthByte)
{
    // Ten bytes whose final byte carries more than the 64th value bit.
    std::string bytes(9, static_cast<char>(0xFF));
    bytes.push_back(0x02);
    for (size_t block : {size_t{64}, size_t{2}}) {
        std::stringstream ss(bytes);
        ByteSource src(ss, block);
        EXPECT_THROW(src.readVarint(), std::runtime_error)
            << "block " << block;
    }
}

TEST(VarintTest, Varint32RejectsWideValues)
{
    std::stringstream ss;
    {
        ByteSink sink(ss);
        sink.putVarint(uint64_t{UINT32_MAX} + 1);
        sink.flush();
    }
    ByteSource src(ss);
    EXPECT_THROW(src.readVarint32(), std::runtime_error);
}

TEST(ZigzagTest, RoundTripsAndOrdersByMagnitude)
{
    for (uint32_t v : {0u, 1u, 0xFFFFFFFFu /* -1 */, 2u,
                       0xFFFFFFFEu /* -2 */, 0x7FFFFFFFu, 0x80000000u})
        EXPECT_EQ(unzigzag32(zigzag32(v)), v);
    // Small magnitudes (either sign) must map to small codes so the
    // delta streams stay one byte wide.
    EXPECT_EQ(zigzag32(0), 0u);
    EXPECT_EQ(zigzag32(0xFFFFFFFF), 1u); // -1
    EXPECT_EQ(zigzag32(1), 2u);
    EXPECT_LT(zigzag32(0xFFFFFFFD), 0x80u); // -3 fits one varint byte.
}

TEST(FnvStateTest, WordsFoldIsChunkingInvariant)
{
    // The word fold buffers partial words across update() calls, so
    // any split of the byte stream must produce the same digest.
    std::vector<uint8_t> data(61);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 37 + 11);

    FnvState one;
    one.begin();
    one.update(data.data(), data.size());

    for (size_t chunk : {size_t{1}, size_t{3}, size_t{8}, size_t{13}}) {
        FnvState split;
        split.begin();
        for (size_t i = 0; i < data.size(); i += chunk)
            split.update(data.data() + i,
                         std::min(chunk, data.size() - i));
        EXPECT_EQ(split.value(), one.value()) << "chunk " << chunk;
    }
}

TEST(FnvStateTest, WordsFoldDetectsFlipTruncationAndSwap)
{
    std::vector<uint8_t> data(40, 0xA5);
    data[17] = 0x12;
    auto digest = [](const std::vector<uint8_t> &d) {
        FnvState s;
        s.begin();
        s.update(d.data(), d.size());
        return s.value();
    };
    uint64_t good = digest(data);

    std::vector<uint8_t> flipped = data;
    flipped[5] ^= 0x40;
    EXPECT_NE(digest(flipped), good);

    std::vector<uint8_t> truncated(data.begin(), data.end() - 1);
    EXPECT_NE(digest(truncated), good);

    std::vector<uint8_t> swapped = data;
    std::swap(swapped[0], swapped[17]);
    EXPECT_NE(digest(swapped), good);
}

TEST(ByteIoTest, SinkAndSourceHashesAgree)
{
    std::stringstream ss;
    uint64_t written;
    {
        // An 8-byte block forces many drains on the write side and
        // many refills (lazy-hash folds) on the read side.
        ByteSink sink(ss, /*block_bytes=*/8);
        sink.beginHash();
        sink.putU32(0xDEADBEEF);
        for (uint64_t v : kVarintProbes)
            sink.putVarint(v);
        sink.putU64(0x0123456789ABCDEFull);
        sink.putByte(7);
        written = sink.hashValue();
        sink.flush();
    }
    ByteSource src(ss, /*block_bytes=*/8);
    src.beginHash();
    EXPECT_EQ(src.readU32(), 0xDEADBEEFu);
    for (uint64_t v : kVarintProbes)
        EXPECT_EQ(src.readVarint(), v);
    EXPECT_EQ(src.readU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(src.readByte(), 7u);
    EXPECT_EQ(src.hashValue(), written);
}

TEST(ByteIoTest, LazyHashStaysCorrectMidBuffer)
{
    // hashValue() must fold exactly the consumed-but-unhashed span
    // without disturbing subsequent reads of the same buffer.
    std::vector<uint8_t> bytes(32);
    std::stringstream ss;
    {
        ByteSink sink(ss);
        for (uint8_t i = 0; i < 32; ++i) {
            bytes[i] = i;
            sink.putByte(i);
        }
        sink.flush();
    }
    auto digest = [&bytes](size_t n) {
        FnvState s;
        s.begin();
        s.update(bytes.data(), n);
        return s.value();
    };
    ByteSource src(ss);
    src.beginHash();
    for (uint8_t i = 0; i < 10; ++i)
        EXPECT_EQ(src.readByte(), i);
    uint64_t mid = src.hashValue();
    EXPECT_EQ(mid, digest(10));
    EXPECT_EQ(src.hashValue(), mid); // Query is idempotent.
    for (uint8_t i = 10; i < 32; ++i)
        EXPECT_EQ(src.readByte(), i);
    EXPECT_EQ(src.hashValue(), digest(32));
}

TEST(ByteIoTest, TruncatedSourceThrows)
{
    std::stringstream ss;
    {
        ByteSink sink(ss);
        sink.putU32(42);
        sink.flush();
    }
    ByteSource src(ss);
    EXPECT_THROW(src.readU64(), std::runtime_error);
}

TEST(ByteIoTest, AtEofOnlyAfterLastByte)
{
    std::stringstream ss;
    {
        ByteSink sink(ss);
        sink.putByte(1);
        sink.putByte(2);
        sink.flush();
    }
    ByteSource src(ss);
    EXPECT_FALSE(src.atEof());
    src.readByte();
    EXPECT_FALSE(src.atEof());
    src.readByte();
    EXPECT_TRUE(src.atEof());
}

/** One-shot word-folded FNV-1a over @p bytes[from, to). */
uint64_t
oneShot(const std::string &bytes, size_t from, size_t to)
{
    FnvState s;
    s.begin();
    s.update(bytes.data() + from, to - from);
    return s.value();
}

/**
 * The sink folds its hash lazily, per buffered span; whatever the
 * block size and however the fields split across drains, the digest
 * equals one FnvState pass over the bytes that reached the stream.
 */
TEST(ByteSinkHashTest, LazyFoldMatchesOneShotAtEveryBlockSize)
{
    for (size_t block = 1; block <= 17; ++block) {
        SCOPED_TRACE(block);
        apps::Rng rng(block);
        std::stringstream ss;
        ByteSink sink(ss, block);
        sink.beginHash();
        for (int i = 0; i < 400; ++i) {
            switch (rng.below(4)) {
              case 0:
                sink.putByte(static_cast<uint8_t>(rng.below(256)));
                break;
              case 1:
                sink.putVarint(kVarintProbes[rng.below(
                    kVarintProbes.size())]);
                break;
              case 2:
                sink.putU32(static_cast<uint32_t>(rng.below(1u << 31)));
                break;
              default: {
                std::string chunk(rng.below(40), 'x');
                for (char &c : chunk)
                    c = static_cast<char>(rng.below(256));
                sink.put(chunk.data(), chunk.size());
              }
            }
        }
        const uint64_t digest = sink.hashValue();
        sink.flush();
        const std::string bytes = ss.str();
        EXPECT_EQ(digest, oneShot(bytes, 0, bytes.size()));
    }
}

/** beginHash() mid-block hashes only what follows it. */
TEST(ByteSinkHashTest, BeginHashMidBlockSkipsThePrefix)
{
    for (size_t block : {size_t{3}, size_t{8}, size_t{64}}) {
        SCOPED_TRACE(block);
        std::stringstream ss;
        ByteSink sink(ss, block);
        sink.putU32(0xABCD1234);
        sink.putByte(9); // 5 bytes: mid-block for 8 and 64.
        sink.beginHash();
        for (uint64_t v : kVarintProbes)
            sink.putVarint(v);
        sink.putU64(42);
        const uint64_t digest = sink.hashValue();
        sink.flush();
        const std::string bytes = ss.str();
        EXPECT_EQ(digest, oneShot(bytes, 5, bytes.size()));
    }
}

/** hashValue() mid-stream is a snapshot; writing on still folds in. */
TEST(ByteSinkHashTest, HashValueMidStreamThenMoreWrites)
{
    for (size_t block : {size_t{1}, size_t{5}, size_t{16}, size_t{4096}}) {
        SCOPED_TRACE(block);
        std::stringstream ss;
        ByteSink sink(ss, block);
        sink.beginHash();
        for (uint8_t i = 0; i < 13; ++i)
            sink.putByte(i);
        const uint64_t mid = sink.hashValue();
        EXPECT_EQ(sink.hashValue(), mid); // Query is idempotent.
        for (uint64_t v : kVarintProbes)
            sink.putVarint(v);
        const uint64_t end = sink.hashValue();
        sink.flush();
        const std::string bytes = ss.str();
        EXPECT_EQ(mid, oneShot(bytes, 0, 13));
        EXPECT_EQ(end, oneShot(bytes, 0, bytes.size()));
    }
}

/**
 * A torn bundle write (the byte_io.drain short-write fault: half a
 * block lands, then the stream fails) surfaces as a write error, and
 * what did land is a file the loader rejects.
 */
TEST(ByteSinkHashTest, ShortWriteDrainYieldsARejectedBundle)
{
    sim::TraceBundle bundle;
    bundle.trace = testing::randomTrace(7, 50000); // Several blocks.
    bundle.stats = trace::computeStats(bundle.trace);
    for (const char *trigger : {"once", "2", "3"}) {
        SCOPED_TRACE(trigger);
        FailpointSpec spec;
        ASSERT_TRUE(parseFailpointSpec(
            std::string("byte_io.drain:short-write:") + trigger, spec));
        armFailpoint(spec);
        std::stringstream ss;
        EXPECT_THROW(runner::saveBundle(bundle, ss), IoError);
        disarmAllFailpoints();
        std::stringstream torn(ss.str());
        EXPECT_ANY_THROW(runner::loadBundleView(torn));
    }
    // Unarmed, the same bundle round-trips.
    std::stringstream ss;
    runner::saveBundle(bundle, ss);
    EXPECT_EQ(runner::loadBundleView(ss).view->size(),
              bundle.trace.size());
}

} // namespace
} // namespace dsmem::util
