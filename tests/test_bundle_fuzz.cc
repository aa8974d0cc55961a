/**
 * @file
 * Hardened-deserialization proof for the bundle and trace loaders:
 * for ANY malformed input — every possible truncation point, a byte
 * flip at every offset, absurd record counts, retired format
 * versions — loadBundle /
 * loadBundleView / loadTrace must fail with a *typed* error
 * (util::FormatError / util::IoError), never crash, never read out
 * of bounds, and never reserve unbounded memory. The DSLP live-point
 * loader (sim::loadLivePoints) is held to the same contract.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "random_trace.h"
#include "runner/trace_store.h"
#include "sim/sampling.h"
#include "sim/trace_bundle.h"
#include "trace/chunked_view.h"
#include "trace/trace_io.h"
#include "trace/trace_view.h"
#include "util/byte_io.h"
#include "util/errors.h"

namespace dsmem::runner {
namespace {

sim::TraceBundle
makeBundle(uint64_t seed, size_t n)
{
    sim::TraceBundle bundle;
    bundle.trace = testing::randomTrace(seed, n);
    bundle.stats = trace::computeStats(bundle.trace);
    bundle.mp_cycles = 12345;
    bundle.verified = true;
    return bundle;
}

std::string
serializeV2(const sim::TraceBundle &bundle)
{
    std::ostringstream os(std::ios::binary);
    saveBundle(bundle, os);
    return std::move(os).str();
}

/**
 * Run @p fn on @p bytes and require the hardened contract: either it
 * succeeds, or it throws one of the typed errors. Anything else
 * (std::bad_alloc from an unbounded reserve, std::length_error, a
 * raw std::runtime_error that bypassed the taxonomy) fails the test.
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

void
loadBundleFrom(std::istream &is)
{
    sim::TraceBundle b = loadBundle(is);
    (void)b;
}

void
loadViewFrom(std::istream &is)
{
    sim::ViewBundle vb = loadBundleView(is);
    (void)vb;
}

// --- Truncation: every prefix length must fail, typed --------------

void
truncateEverywhere(const std::string &bytes)
{
    for (size_t len = 0; len < bytes.size(); ++len) {
        std::string prefix = bytes.substr(0, len);
        EXPECT_FALSE(typedOutcome(prefix, loadBundleFrom))
            << "truncated bundle of " << len << "/" << bytes.size()
            << " bytes loaded successfully";
        EXPECT_FALSE(typedOutcome(prefix, loadViewFrom))
            << "truncated view bundle of " << len << "/"
            << bytes.size() << " bytes loaded successfully";
    }
    // The untruncated bytes stay loadable — the loop above did not
    // pass vacuously.
    EXPECT_TRUE(typedOutcome(bytes, loadBundleFrom));
    EXPECT_TRUE(typedOutcome(bytes, loadViewFrom));
}

TEST(BundleFuzz, TruncationAtEveryOffsetV2)
{
    truncateEverywhere(serializeV2(makeBundle(7, 200)));
}

// --- Byte flips: typed error or checksum-verified success ----------

void
flipEverywhere(const std::string &bytes)
{
    size_t survived = 0;
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
        for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xFF}}) {
            std::string mutant = bytes;
            mutant[pos] = static_cast<char>(
                static_cast<uint8_t>(mutant[pos]) ^ mask);
            if (typedOutcome(mutant, loadBundleFrom))
                ++survived;
            typedOutcome(mutant, loadViewFrom);
        }
    }
    // The whole-payload checksum makes a silently accepted flip
    // effectively impossible; allow a stray false negative per corpus
    // rather than encode FNV's exact diffusion here.
    EXPECT_LE(survived, 1u)
        << "byte flips routinely pass checksum verification";
}

TEST(BundleFuzz, ByteFlipAtEveryOffsetV2)
{
    flipEverywhere(serializeV2(makeBundle(11, 150)));
}

// --- Bounded allocation on absurd counts ---------------------------

TEST(BundleFuzz, HugeRecordCountIsRejectedBeforeAllocating)
{
    // Handcraft a v2 trace stream claiming ~2^60 records in a
    // few-byte payload. The loader must reject it from the stream
    // size alone — reserving space first would be a multi-exabyte
    // allocation.
    std::ostringstream os(std::ios::binary);
    {
        util::ByteSink sink(os);
        sink.put("DSMT", 4);
        sink.putU32(trace::kTraceFormatVersion);
        sink.putVarint(0);                      // Name length.
        sink.putVarint(uint64_t{1} << 60);      // Record count.
        sink.flush();
    }
    std::string bytes = std::move(os).str();
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(trace::loadTrace(is), util::FormatError);

    std::istringstream is2(bytes, std::ios::binary);
    EXPECT_THROW(trace::loadTraceView(is2), util::FormatError);
}

TEST(BundleFuzz, Version1StreamsAreRefused)
{
    // The retired v1 layouts must fail on the version field, before
    // any of the body is trusted. The trace header also claims ~2^59
    // fixed-width records, so a reader that still decoded v1 bodies
    // would have to reject the count from the stream size alone.
    std::ostringstream trace_os(std::ios::binary);
    {
        util::ByteSink sink(trace_os);
        sink.put("DSMT", 4);
        sink.putU32(1);                  // Version.
        sink.putU32(0);                  // Name length.
        sink.putU64(uint64_t{1} << 59);  // Record count.
        sink.flush();
    }
    const std::string trace_v1 = std::move(trace_os).str();
    {
        std::istringstream is(trace_v1, std::ios::binary);
        EXPECT_THROW(trace::loadTrace(is), util::FormatError);
    }
    {
        std::istringstream is(trace_v1, std::ios::binary);
        EXPECT_THROW(trace::loadTraceView(is), util::FormatError);
    }
    {
        std::istringstream is(trace_v1, std::ios::binary);
        EXPECT_THROW(trace::loadTraceChunked(is), util::FormatError);
    }

    // A v1 bundle: checksum and payload size in the header, then the
    // payload (here the v1 trace header above).
    std::ostringstream bundle_os(std::ios::binary);
    {
        util::ByteSink sink(bundle_os);
        sink.put("DSMB", 4);
        sink.putU32(1);                  // Version.
        sink.putU64(util::fnv1aUpdate(util::kFnvOffset, trace_v1.data(),
                                      trace_v1.size()));
        sink.putU64(trace_v1.size());
        sink.put(trace_v1.data(), trace_v1.size());
        sink.flush();
    }
    const std::string bundle_v1 = std::move(bundle_os).str();
    {
        std::istringstream is(bundle_v1, std::ios::binary);
        EXPECT_THROW(loadBundle(is), util::FormatError);
    }
    {
        std::istringstream is(bundle_v1, std::ios::binary);
        EXPECT_THROW(loadBundleView(is), util::FormatError);
    }

    // In a store directory, a file under a v1-era name is neither
    // read nor quarantined: the lookup is a plain miss, and gc()
    // prunes the file as a stale format.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
        ("dsmem_bundle_fuzz_v1_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    memsys::MemoryConfig mem;
    std::string name = TraceStore::fileName(sim::AppId::MP3D, mem, true);
    const std::string current_suffix = "_v" +
        std::to_string(kBundleFormatVersion) + "t" +
        std::to_string(trace::kTraceFormatVersion) + ".dsmb";
    ASSERT_GT(name.size(), current_suffix.size());
    name.replace(name.size() - current_suffix.size(),
                 current_suffix.size(), "_v1t1.dsmb");
    {
        std::ofstream os(dir / name, std::ios::binary);
        os.write(bundle_v1.data(),
                 static_cast<std::streamsize>(bundle_v1.size()));
    }

    TraceStore store(dir.string());
    EXPECT_FALSE(store.loadView(sim::AppId::MP3D, mem, true).has_value());
    StoreStats stats = store.stats();
    EXPECT_EQ(stats.loads, 0u);
    EXPECT_EQ(stats.format_errors, 0u);
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_TRUE(fs::exists(dir / name));

    StoreGcStats gc = store.gc(StoreGcOptions{});
    EXPECT_EQ(gc.scanned, 1u);
    EXPECT_EQ(gc.removed_stale, 1u);
    EXPECT_FALSE(fs::exists(dir / name));
    fs::remove_all(dir);
}

TEST(BundleFuzz, BadMagicAndVersionAreFormatErrors)
{
    std::string v2 = serializeV2(makeBundle(3, 30));

    std::string bad_magic = v2;
    bad_magic[0] = 'X';
    EXPECT_FALSE(typedOutcome(bad_magic, loadBundleFrom));

    std::string bad_version = v2;
    bad_version[4] = 99; // Little-endian version field.
    std::istringstream is(bad_version, std::ios::binary);
    EXPECT_THROW(loadBundle(is), util::FormatError);
}

TEST(BundleFuzz, TrailingGarbageIsRejected)
{
    std::string v2 = serializeV2(makeBundle(5, 40));
    v2 += "extra";
    std::istringstream is(v2, std::ios::binary);
    EXPECT_THROW(loadBundle(is), util::FormatError);
}

// --- DSLP live-point streams under the same contract ----------------

std::string
serializeLivePoints(uint64_t seed, size_t n)
{
    trace::TraceView view(testing::randomTrace(seed, n));
    sim::SamplingPlan plan;
    plan.period = 2000;
    plan.detailed = 300;
    plan.warmup = 500;
    std::ostringstream os(std::ios::binary);
    sim::saveLivePoints(sim::computeLivePoints(view, plan), os);
    return std::move(os).str();
}

void
loadLivePointsFrom(std::istream &is)
{
    sim::LivePointSet set = sim::loadLivePoints(is);
    (void)set;
}

TEST(BundleFuzz, LivePointTruncationAtEveryOffset)
{
    std::string bytes = serializeLivePoints(13, 9000);
    for (size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(
            typedOutcome(bytes.substr(0, len), loadLivePointsFrom))
            << "truncated live points of " << len << "/"
            << bytes.size() << " bytes loaded successfully";
    }
    EXPECT_TRUE(typedOutcome(bytes, loadLivePointsFrom));
}

TEST(BundleFuzz, LivePointByteFlipAtEveryOffset)
{
    std::string bytes = serializeLivePoints(29, 7000);
    size_t survived = 0;
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
        for (uint8_t mask : {uint8_t{0x01}, uint8_t{0xFF}}) {
            std::string mutant = bytes;
            mutant[pos] = static_cast<char>(
                static_cast<uint8_t>(mutant[pos]) ^ mask);
            if (typedOutcome(mutant, loadLivePointsFrom))
                ++survived;
        }
    }
    EXPECT_LE(survived, 1u)
        << "byte flips routinely pass DSLP checksum verification";
}

TEST(BundleFuzz, LivePointHugeCountsAreRejectedBeforeAllocating)
{
    // A handcrafted header claiming 2^20 BTB entries and ~2^60 points
    // in a tiny stream: the loader must bound both by the remaining
    // byte count instead of reserving from the claimed values.
    std::ostringstream os(std::ios::binary);
    {
        util::ByteSink sink(os);
        sink.put("DSLP", 4);
        sink.putU32(1);                 // Version.
        sink.beginHash();
        sink.putU32(1u << 20);          // BTB entries.
        sink.putU32(4);                 // Associativity.
        sink.putU64(2000);              // Period.
        sink.putU64(1);                 // Seed.
        sink.putU64(100);               // Offset.
        sink.putU64(uint64_t{1} << 40); // Instructions.
        sink.putVarint(uint64_t{1} << 60); // Point count.
        sink.putU64(sink.hashValue());
        sink.flush();
    }
    std::string bytes = std::move(os).str();
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(sim::loadLivePoints(is), util::FormatError);
}

TEST(BundleFuzz, LivePointTrailingGarbageIsRejected)
{
    std::string bytes = serializeLivePoints(3, 6000) + "x";
    std::istringstream is(bytes, std::ios::binary);
    EXPECT_THROW(sim::loadLivePoints(is), util::FormatError);
}

} // namespace
} // namespace dsmem::runner
