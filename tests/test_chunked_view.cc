/**
 * @file
 * Contract tests for the chunk-compressed resident trace form:
 * every chunk must decode to exactly the flat view's columns (at
 * sizes straddling the chunk boundary, and in any decode order),
 * flatten() must reproduce the original view (and count its copy as
 * resident), and the chunked loader must agree byte-for-byte
 * with the flat loader on ANY input — every truncation point and a
 * byte flip at every offset either loads identically through both
 * paths or fails both with a *typed* error (util::FormatError /
 * util::IoError), with chunk-boundary offsets swept densely.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "random_trace.h"
#include "sim/app_registry.h"
#include "sim/trace_bundle.h"
#include "trace/chunked_view.h"
#include "trace/trace_buffer.h"
#include "trace/trace_io.h"
#include "trace/trace_stats.h"
#include "trace/trace_view.h"
#include "util/byte_io.h"
#include "util/errors.h"

namespace dsmem::trace {
namespace {

std::string
serializeV2(const Trace &t)
{
    std::ostringstream os(std::ios::binary);
    saveTrace(t, os);
    return std::move(os).str();
}

/** Column-for-column equality, including the derived flags. */
void
expectSameView(const TraceView &a, const TraceView &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.name(), b.name());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.op(i), b.op(i)) << "op at " << i;
        ASSERT_EQ(a.fu(i), b.fu(i)) << "fu at " << i;
        ASSERT_EQ(a.flags(i), b.flags(i)) << "flags at " << i;
        ASSERT_EQ(a.numSrcs(i), b.numSrcs(i)) << "num_srcs at " << i;
        for (uint8_t s = 0; s < a.numSrcs(i); ++s)
            ASSERT_EQ(a.srcs(i)[s], b.srcs(i)[s])
                << "src " << int(s) << " at " << i;
        ASSERT_EQ(a.addr(i), b.addr(i)) << "addr at " << i;
        ASSERT_EQ(a.latency(i), b.latency(i)) << "latency at " << i;
        ASSERT_EQ(a.aux(i), b.aux(i)) << "aux at " << i;
    }
}

/** One decoded tile must match the flat view over its global range. */
void
expectTileMatchesView(const TraceTile &tile, const TraceView &view)
{
    TileSpan span(tile);
    ASSERT_LE(span.hi(), view.size());
    for (size_t i = span.lo(); i < span.hi(); ++i) {
        ASSERT_EQ(span.op(i), view.op(i)) << "op at " << i;
        ASSERT_EQ(span.fu(i), view.fu(i)) << "fu at " << i;
        ASSERT_EQ(span.flags(i), view.flags(i)) << "flags at " << i;
        ASSERT_EQ(span.numSrcs(i), view.numSrcs(i))
            << "num_srcs at " << i;
        for (uint8_t s = 0; s < span.numSrcs(i); ++s)
            ASSERT_EQ(span.srcs(i)[s], view.srcs(i)[s])
                << "src " << int(s) << " at " << i;
        ASSERT_EQ(span.addr(i), view.addr(i)) << "addr at " << i;
        ASSERT_EQ(span.latency(i), view.latency(i))
            << "latency at " << i;
        ASSERT_EQ(span.aux(i), view.aux(i)) << "aux at " << i;
    }
}

// --- Encode/decode round trip at chunk-boundary sizes ---------------

TEST(ChunkedView, RoundTripAtChunkBoundarySizes)
{
    constexpr size_t k = ChunkedView::kChunkInstrs;
    const size_t sizes[] = {1, 100, k - 1, k, k + 1, 2 * k + k / 2};
    TraceTile tile; // Recycled across every decode, like the ring.
    for (size_t n : sizes) {
        SCOPED_TRACE("n = " + std::to_string(n));
        TraceView view(testing::randomTrace(41, n));
        ChunkedView cv(view);

        EXPECT_EQ(cv.size(), n);
        EXPECT_EQ(cv.name(), view.name());
        ASSERT_EQ(cv.chunkCount(), (n + k - 1) / k);
        size_t covered = 0;
        for (size_t c = 0; c < cv.chunkCount(); ++c) {
            EXPECT_EQ(cv.chunkBase(c), c * k);
            ASSERT_GT(cv.chunkLength(c), 0u);
            covered += cv.chunkLength(c);
            cv.decodeChunk(c, tile);
            EXPECT_EQ(tile.base, cv.chunkBase(c));
            ASSERT_EQ(tile.count, cv.chunkLength(c));
            expectTileMatchesView(tile, view);
        }
        EXPECT_EQ(covered, n);

        // The materialized flat copy is resident too.
        const size_t compressed = cv.bytesResident();
        std::shared_ptr<const TraceView> flat = cv.flatten();
        expectSameView(*flat, view);
        EXPECT_EQ(cv.bytesResident(),
                  compressed +
                      n * static_cast<size_t>(TraceView::bytesPerInstr()));
        // Memoized: a second flatten is the same materialization.
        EXPECT_EQ(cv.flatten().get(), flat.get());
    }
}

TEST(ChunkedView, ChunksDecodeIndependentlyInAnyOrder)
{
    constexpr size_t k = ChunkedView::kChunkInstrs;
    TraceView view(testing::randomTrace(43, 2 * k + 321));
    ChunkedView cv(view);
    ASSERT_EQ(cv.chunkCount(), 3u);

    // Out of order, with repeats, through one recycled tile: the
    // per-chunk directory must seed the delta accumulators so no
    // decode depends on a predecessor having run.
    TraceTile tile;
    for (size_t c : {2u, 0u, 2u, 1u, 0u}) {
        SCOPED_TRACE("chunk " + std::to_string(c));
        cv.decodeChunk(c, tile);
        expectTileMatchesView(tile, view);
    }
}

TEST(ChunkedView, ResidentFootprintIsCompressed)
{
    TraceView view(
        testing::randomTrace(47, 2 * ChunkedView::kChunkInstrs));
    ChunkedView cv(view);
    const double flat_bytes =
        static_cast<double>(view.size()) * TraceView::bytesPerInstr();
    EXPECT_GT(cv.bytesResident(), 0u);
    // The v2 sections run ~4-8 B/instr against the flat 32; anything
    // above half would mean the resident form stopped paying rent.
    EXPECT_LT(static_cast<double>(cv.bytesResident()),
              flat_bytes / 2.0);
}

// --- Loader equivalence on well-formed streams ----------------------

TEST(ChunkedView, LoadChunkedMatchesLoadView)
{
    Trace t = testing::randomTrace(53, ChunkedView::kChunkInstrs + 777);
    std::string bytes = serializeV2(t);

    std::istringstream is_flat(bytes, std::ios::binary);
    std::shared_ptr<const TraceView> flat = loadTraceView(is_flat);
    std::istringstream is_chunked(bytes, std::ios::binary);
    std::shared_ptr<const ChunkedView> cv = loadTraceChunked(is_chunked);

    ASSERT_TRUE(flat);
    ASSERT_TRUE(cv);
    expectSameView(*cv->flatten(), *flat);
}

// --- Loader agreement fuzz ------------------------------------------

/**
 * Load @p bytes through @p fn under the hardened contract: success,
 * or a typed error. An untyped exception fails the test outright.
 */
template <typename Fn>
bool
typedOutcome(const std::string &bytes, Fn fn)
{
    std::istringstream is(bytes, std::ios::binary);
    try {
        fn(is);
        return true;
    } catch (const util::FormatError &) {
        return false;
    } catch (const util::IoError &) {
        return false;
    } catch (const std::exception &e) {
        ADD_FAILURE() << "untyped exception escaped the loader: "
                      << e.what();
        return false;
    }
}

/**
 * The agreement contract for one (possibly mangled) byte string:
 * loadTraceChunked and loadTraceView either both load or both throw
 * typed errors, and when both load, the chunked result flattens to
 * the identical trace — a mutant may decode to a *different* valid
 * trace (bare DSMT streams carry no checksum), but never to different
 * traces through the two paths.
 */
bool
expectLoaderAgreement(const std::string &bytes, const char *what)
{
    std::shared_ptr<const TraceView> flat;
    std::shared_ptr<const ChunkedView> cv;
    bool flat_ok = typedOutcome(
        bytes, [&](std::istream &is) { flat = loadTraceView(is); });
    bool chunked_ok = typedOutcome(
        bytes, [&](std::istream &is) { cv = loadTraceChunked(is); });
    EXPECT_EQ(chunked_ok, flat_ok)
        << what << ": loaders disagree (flat "
        << (flat_ok ? "loaded" : "failed") << ", chunked "
        << (chunked_ok ? "loaded" : "failed") << ")";
    if (flat_ok && chunked_ok)
        expectSameView(*cv->flatten(), *flat);
    return flat_ok && chunked_ok;
}

void
truncateEverywhere(const std::string &bytes)
{
    for (size_t len = 0; len < bytes.size(); ++len) {
        std::string what =
            "truncated to " + std::to_string(len) + "/" +
            std::to_string(bytes.size()) + " bytes";
        EXPECT_FALSE(expectLoaderAgreement(bytes.substr(0, len),
                                           what.c_str()))
            << what << " loaded successfully";
    }
    // The untruncated bytes stay loadable — nothing above was vacuous.
    EXPECT_TRUE(expectLoaderAgreement(bytes, "untruncated"));
}

TEST(ChunkedView, TruncationAgreementAtEveryOffsetV2)
{
    truncateEverywhere(serializeV2(testing::randomTrace(7, 250)));
}

void
flipAt(const std::string &bytes, size_t pos)
{
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xFF}}) {
        std::string mutant = bytes;
        mutant[pos] = static_cast<char>(
            static_cast<uint8_t>(mutant[pos]) ^ mask);
        std::string what = "flip at offset " + std::to_string(pos) +
                           " mask " + std::to_string(mask);
        expectLoaderAgreement(mutant, what.c_str());
    }
}

TEST(ChunkedView, ByteFlipAgreementAtEveryOffset)
{
    std::string bytes = serializeV2(testing::randomTrace(11, 200));
    for (size_t pos = 0; pos < bytes.size(); ++pos)
        flipAt(bytes, pos);
}

/** Serialized byte length of one varint — mirrors ByteSink. */
size_t
varintLen(uint64_t v)
{
    size_t len = 1;
    while (v >= 0x80) {
        v >>= 7;
        ++len;
    }
    return len;
}

/**
 * A multi-chunk stream is too large for an every-offset sweep, so
 * flip densely around the chunk-boundary instruction's meta byte
 * (where the per-chunk directory seeds its section offsets and delta
 * accumulators) and at a coarse stride everywhere else. Truncation
 * gets the same schedule.
 */
TEST(ChunkedView, MutationAgreementAcrossChunkBoundary)
{
    constexpr size_t k = ChunkedView::kChunkInstrs;
    Trace t = testing::randomTrace(13, k + 600);
    std::string bytes = serializeV2(t);

    // v2 layout: magic(4) version(4) nameLen name count, then n meta
    // bytes — so the chunk-boundary instruction's meta byte sits at a
    // computable offset. The other sections' boundaries are
    // data-dependent; the strided sweep covers them statistically.
    const size_t header = 4 + 4 + varintLen(t.name().size()) +
                          t.name().size() + varintLen(t.size());
    const size_t boundary = header + k;
    ASSERT_LT(boundary + 32, bytes.size());

    std::vector<size_t> offsets;
    for (size_t pos = boundary - 32; pos < boundary + 32; ++pos)
        offsets.push_back(pos);
    for (size_t pos = 0; pos < bytes.size(); pos += 211)
        offsets.push_back(pos);

    for (size_t pos : offsets) {
        flipAt(bytes, pos);
        std::string what =
            "truncated to " + std::to_string(pos) + " bytes";
        EXPECT_FALSE(expectLoaderAgreement(bytes.substr(0, pos),
                                           what.c_str()))
            << what << " loaded successfully";
    }
    EXPECT_TRUE(expectLoaderAgreement(bytes, "unmutated"));
}

// --- Bounded allocation on absurd counts ----------------------------

TEST(ChunkedView, HugeRecordCountIsRejectedBeforeAllocating)
{
    // A few-byte v2 stream claiming ~2^60 records: the chunked loader
    // must reject from the stream size alone, like the flat loaders —
    // reserving meta/directory space first would be a multi-exabyte
    // allocation.
    std::ostringstream os(std::ios::binary);
    {
        util::ByteSink sink(os);
        sink.put("DSMT", 4);
        sink.putU32(kTraceFormatVersion);
        sink.putVarint(0);                 // Name length.
        sink.putVarint(uint64_t{1} << 60); // Record count.
        sink.flush();
    }
    std::string bytes = std::move(os).str();
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(loadTraceChunked(is), util::FormatError);
}

// --- The phase-1 capture encoder -------------------------------------

/** Feed @p t to an Encoder in chunk-sized pieces. */
std::shared_ptr<const ChunkedView>
encodeInChunks(const Trace &t)
{
    constexpr size_t k = ChunkedView::kChunkInstrs;
    ChunkedView::Encoder enc;
    for (size_t lo = 0; lo < t.size(); lo += k)
        enc.add(&t[lo], std::min(k, t.size() - lo));
    return enc.finish(t.name());
}

TEST(ChunkedView, EncoderMatchesViewEncodingAtChunkEdges)
{
    constexpr size_t k = ChunkedView::kChunkInstrs;
    for (size_t n : {size_t{0}, size_t{1}, k - 1, k, k + 1,
                     2 * k + k / 2}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        const Trace t = testing::randomTrace(59, n);
        const TraceView view(t);
        std::shared_ptr<const ChunkedView> cv = encodeInChunks(t);
        EXPECT_TRUE(*cv == ChunkedView(view));
        expectSameView(*cv->flatten(), view);
    }
}

TEST(ChunkedView, EncoderRejectsWhatTheLoadersReject)
{
    Trace t = testing::randomTrace(67, 40);
    {
        Trace bad = t;
        TraceInst inst = makeCompute(Op::IALU, 40); // Itself: no SSA.
        bad.append(inst);
        ChunkedView::Encoder enc;
        EXPECT_THROW(enc.add(&bad[0], bad.size()), util::FormatError);
    }
    {
        TraceInst inst = makeCompute(Op::IALU);
        inst.op = static_cast<Op>(kNumOps);
        ChunkedView::Encoder enc;
        EXPECT_THROW(enc.add(&inst, 1), util::FormatError);
    }
    {
        // Only the last chunk may be partial.
        ChunkedView::Encoder enc;
        enc.add(&t[0], t.size());
        EXPECT_THROW(enc.add(&t[0], t.size()), std::logic_error);
    }
}

/**
 * The recorder seals a chunk only once every deferred record in it is
 * patched. Records past chunk edges are held back for lags from a few
 * instructions to more than a chunk; the capture must still be the
 * v2 encoding of the patched trace.
 */
TEST(TraceRecorder, DeferredRecordsHoldTheirChunkUntilPatched)
{
    constexpr size_t k = ChunkedView::kChunkInstrs;
    const Trace t = testing::randomTrace(61, 3 * k + 100);
    std::multimap<size_t, size_t> due; // Append index -> patched index.
    TraceRecorder rec;
    size_t deferred = 0;
    for (size_t i = 0; i < t.size(); ++i) {
        TraceInst inst = t[i];
        const bool near_edge = i % k >= k - 6;
        if (inst.op == Op::STORE && (near_edge || i % 7 == 0)) {
            inst.latency = 999; // Provisional.
            rec.appendDeferred(inst);
            due.emplace(i + (i * 37) % (k + 50), i);
            ++deferred;
        } else {
            rec.append(inst);
        }
        for (auto it = due.find(i); it != due.end() && it->first == i;
             it = due.erase(it))
            rec.patchLatency(it->second, t[it->second].latency);
    }
    for (const auto &[when, index] : due)
        rec.patchLatency(index, t[index].latency);
    ASSERT_GT(deferred, 100u);

    std::shared_ptr<const ChunkedView> cv = rec.finish("random");
    EXPECT_TRUE(*cv == ChunkedView(TraceView(t)));
    const TraceStats want = computeStats(t);
    EXPECT_EQ(rec.stats().instructions, want.instructions);
    EXPECT_EQ(rec.stats().writes, want.writes);
    EXPECT_EQ(rec.stats().write_misses, want.write_misses);
    EXPECT_EQ(rec.stats().read_misses, want.read_misses);
    EXPECT_EQ(rec.stats().taken_branches, want.taken_branches);
    EXPECT_EQ(rec.stats().barriers, want.barriers);
}

TEST(TraceRecorder, FinishRefusesAnUnpatchedRecord)
{
    TraceRecorder rec;
    rec.append(makeCompute(Op::IALU));
    rec.appendDeferred(makeStore(64, 0));
    EXPECT_THROW(rec.finish(), std::logic_error);
}

/**
 * The store's cold path: generateView's capture is the encoding of
 * the trace, its stats the trace's, for every application.
 */
TEST(ChunkedView, CaptureMatchesViewEncodingForEveryApp)
{
    for (sim::AppId id : sim::kAllApps) {
        SCOPED_TRACE(std::string(sim::appName(id)));
        const sim::ViewBundle vb =
            sim::generateView(id, memsys::MemoryConfig{}, true);
        const sim::TraceBundle tb =
            sim::generateTrace(id, memsys::MemoryConfig{}, true);
        ASSERT_TRUE(vb.chunked);
        EXPECT_FALSE(vb.view);
        EXPECT_TRUE(*vb.chunked == ChunkedView(TraceView(tb.trace)));
        EXPECT_EQ(vb.stats.instructions, tb.stats.instructions);
        EXPECT_EQ(vb.stats.reads, tb.stats.reads);
        EXPECT_EQ(vb.stats.read_misses, tb.stats.read_misses);
        EXPECT_EQ(vb.stats.writes, tb.stats.writes);
        EXPECT_EQ(vb.stats.write_misses, tb.stats.write_misses);
        EXPECT_EQ(vb.stats.branches, tb.stats.branches);
        EXPECT_EQ(vb.stats.locks, tb.stats.locks);
        EXPECT_EQ(vb.stats.barriers, tb.stats.barriers);
    }
}

} // namespace
} // namespace dsmem::trace
