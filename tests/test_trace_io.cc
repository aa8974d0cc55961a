#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "random_trace.h"
#include "trace/chunked_view.h"
#include "trace/trace_view.h"
#include "util/byte_io.h"

namespace dsmem::trace {
namespace {

TEST(TraceIoTest, RoundTripEmpty)
{
    Trace t("empty");
    std::stringstream ss;
    saveTrace(t, ss);
    Trace back = loadTrace(ss);
    EXPECT_EQ(back.size(), 0u);
    EXPECT_EQ(back.name(), "empty");
}

TEST(TraceIoTest, RoundTripPreservesEverything)
{
    Trace t = dsmem::testing::randomTrace(2024, 5000);
    std::stringstream ss;
    saveTrace(t, ss);
    Trace back = loadTrace(ss);

    ASSERT_EQ(back.size(), t.size());
    EXPECT_EQ(back.name(), t.name());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(back[i].op, t[i].op);
        EXPECT_EQ(back[i].num_srcs, t[i].num_srcs);
        EXPECT_EQ(back[i].taken, t[i].taken);
        EXPECT_EQ(back[i].addr, t[i].addr);
        EXPECT_EQ(back[i].latency, t[i].latency);
        EXPECT_EQ(back[i].aux, t[i].aux);
        for (int s = 0; s < t[i].num_srcs; ++s)
            EXPECT_EQ(back[i].src[s], t[i].src[s]);
    }
}

TEST(TraceIoTest, ViewLoadMatchesAosLoad)
{
    Trace t = dsmem::testing::randomTrace(123, 4000);
    std::stringstream ss;
    saveTrace(t, ss);
    std::shared_ptr<const TraceView> view = loadTraceView(ss);
    ASSERT_EQ(view->size(), t.size());
    for (size_t i = 0; i < t.size(); ++i)
        ASSERT_EQ(view->materialize(i), t[i]) << "record " << i;
}

/**
 * A chunked view writes its sections back to back; they must be the
 * bytes the record writer produces, whether the view was encoded a
 * chunk at a time (the phase-1 capture) or loaded from a stream.
 */
TEST(TraceIoTest, ChunkedSaveWritesTheFlatBytes)
{
    constexpr size_t k = ChunkedView::kChunkInstrs;
    for (size_t n : {size_t{0}, size_t{1}, k - 1, k, k + 1, 3 * k + 5}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        const Trace t = dsmem::testing::randomTrace(71, n);
        std::stringstream flat;
        saveTrace(t, flat);

        ChunkedView::Encoder enc;
        for (size_t lo = 0; lo < n; lo += k)
            enc.add(&t[lo], std::min(k, n - lo));
        std::shared_ptr<const ChunkedView> captured = enc.finish(t.name());
        std::istringstream is(flat.str(), std::ios::binary);
        std::shared_ptr<const ChunkedView> loaded = loadTraceChunked(is);

        for (const ChunkedView *cv : {captured.get(), loaded.get()}) {
            std::ostringstream os(std::ios::binary);
            util::ByteSink sink(os);
            saveTrace(*cv, sink);
            sink.flush();
            EXPECT_EQ(os.str(), flat.str());
        }
    }
}

TEST(TraceIoTest, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "NOPE and some more bytes to be safe";
    EXPECT_THROW(loadTrace(ss), std::runtime_error);
}

TEST(TraceIoTest, RejectsBadVersion)
{
    Trace t;
    std::stringstream ss;
    saveTrace(t, ss);
    std::string bytes = ss.str();
    bytes[4] = 99; // Clobber the version field.
    std::stringstream bad(bytes);
    EXPECT_THROW(loadTrace(bad), std::runtime_error);
}

TEST(TraceIoTest, RejectsTruncation)
{
    Trace t = dsmem::testing::randomTrace(7, 100);
    std::stringstream ss;
    saveTrace(t, ss);
    std::string bytes = ss.str();
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(loadTrace(truncated), std::runtime_error);
}

TEST(TraceIoTest, RejectsMalformedOpcode)
{
    Trace t;
    t.append(makeCompute(Op::IALU));
    std::stringstream ss;
    saveTrace(t, ss);
    std::string bytes = ss.str();
    // v2 layout: magic(4) version(4) name-len varint(1, = 0)
    // count varint(1, = 1), then the first meta byte, whose low
    // nibble is the opcode; 0x0F is out of range (kNumOps == 14).
    size_t meta_at = 4 + 4 + 1 + 1;
    ASSERT_LT(meta_at, bytes.size());
    bytes[meta_at] = static_cast<char>(0x0F);
    std::stringstream bad(bytes);
    EXPECT_THROW(loadTrace(bad), std::runtime_error);
}

TEST(TraceIoTest, RejectsOverlongVarint)
{
    // Replace the record-count varint with an over-long encoding
    // (eleven continuation bytes); both decoders must reject it
    // rather than read past the 64-bit carry.
    Trace t;
    t.append(makeCompute(Op::IALU));
    std::stringstream ss;
    saveTrace(t, ss);
    std::string bytes = ss.str();
    // v2 layout: magic(4) version(4) name-len varint(1, = 0), then
    // the count varint.
    std::string bad = bytes.substr(0, 9) +
        std::string(11, static_cast<char>(0x80)) + "\x01" +
        bytes.substr(10);
    {
        std::stringstream in(bad);
        EXPECT_THROW(loadTrace(in), std::runtime_error);
    }
    {
        std::stringstream in(bad);
        EXPECT_THROW(loadTraceView(in), std::runtime_error);
    }
}

TEST(TraceIoTest, FileRoundTrip)
{
    Trace t = dsmem::testing::randomTrace(55, 500);
    std::string path = ::testing::TempDir() + "dsmem_trace_io_test.bin";
    saveTraceFile(t, path);
    Trace back = loadTraceFile(path);
    EXPECT_EQ(back.size(), t.size());
    EXPECT_EQ(back.validate(), back.size());
    std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileThrows)
{
    EXPECT_THROW(loadTraceFile("/nonexistent/dsmem.bin"),
                 std::runtime_error);
}

} // namespace
} // namespace dsmem::trace
