#include "core/prefetcher.h"

#include <gtest/gtest.h>

#include "random_trace.h"
#include "trace/instruction.h"
#include "trace/trace_stats.h"

namespace dsmem::core {
namespace {

using trace::makeCompute;
using trace::makeLoad;
using trace::Op;
using trace::Trace;
using trace::TraceInst;

TraceInst
missLoad(trace::Addr addr)
{
    TraceInst inst = makeLoad(addr);
    inst.latency = 50;
    return inst;
}

/** The pass on an AoS trace, through its TraceView implementation. */
Trace
prefetch(const Trace &t, const PrefetchConfig &config,
         PrefetchStats *stats = nullptr)
{
    return applyStridePrefetcher(trace::TraceView(t), config, stats);
}

TEST(PrefetcherTest, RejectsBadConfig)
{
    Trace t;
    PrefetchConfig config;
    config.table_entries = 0;
    EXPECT_THROW(prefetch(t, config),
                 std::invalid_argument);
    config = PrefetchConfig{};
    config.region_bytes = 0;
    EXPECT_THROW(prefetch(t, config),
                 std::invalid_argument);
}

TEST(PrefetcherTest, CoversConstantStrideStream)
{
    Trace t;
    for (int i = 0; i < 50; ++i)
        t.append(missLoad(static_cast<trace::Addr>(0x1000 + 16 * i)));
    PrefetchStats stats;
    Trace out = prefetch(t, PrefetchConfig{}, &stats);
    EXPECT_EQ(stats.read_misses, 50u);
    // All but the training prefix is covered.
    EXPECT_GE(stats.covered, 45u);
    // Covered misses became hits in the transformed trace.
    trace::TraceStats s = trace::computeStats(out);
    EXPECT_EQ(s.read_misses, 50u - stats.covered);
}

TEST(PrefetcherTest, IgnoresRandomAddresses)
{
    apps::Rng rng(5);
    Trace t;
    for (int i = 0; i < 200; ++i) {
        t.append(missLoad(static_cast<trace::Addr>(
            0x1000 + 16 * rng.below(4096))));
    }
    PrefetchStats stats;
    prefetch(t, PrefetchConfig{}, &stats);
    EXPECT_LT(stats.coverage(), 0.05);
}

TEST(PrefetcherTest, TracksMultipleInterleavedStreams)
{
    // Two interleaved constant-stride streams in distinct regions.
    Trace t;
    for (int i = 0; i < 40; ++i) {
        t.append(missLoad(static_cast<trace::Addr>(0x10000 + 16 * i)));
        t.append(
            missLoad(static_cast<trace::Addr>(0x90000 + 32 * i)));
    }
    PrefetchStats stats;
    prefetch(t, PrefetchConfig{}, &stats);
    EXPECT_GT(stats.coverage(), 0.85);
}

TEST(PrefetcherTest, LeavesEverythingElseUntouched)
{
    Trace t = dsmem::testing::randomTrace(17, 3000);
    PrefetchStats stats;
    Trace out = prefetch(t, PrefetchConfig{}, &stats);
    ASSERT_EQ(out.size(), t.size());
    EXPECT_EQ(out.validate(), out.size());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(out[i].op, t[i].op);
        EXPECT_EQ(out[i].addr, t[i].addr);
        if (t[i].op != Op::LOAD) {
            EXPECT_EQ(out[i].latency, t[i].latency);
        }
    }
    trace::TraceStats before = trace::computeStats(t);
    trace::TraceStats after = trace::computeStats(out);
    EXPECT_EQ(before.write_misses, after.write_misses);
    EXPECT_LE(after.read_misses, before.read_misses);
}

TEST(PrefetcherTest, StrideChangeResetsConfidence)
{
    Trace t;
    // Train a stride, then break it; the break must not be covered.
    for (int i = 0; i < 10; ++i)
        t.append(missLoad(static_cast<trace::Addr>(0x1000 + 16 * i)));
    t.append(missLoad(0x1400)); // Jump.
    PrefetchStats stats;
    Trace out = prefetch(t, PrefetchConfig{}, &stats);
    EXPECT_EQ(out[10].latency, 50u);
}

} // namespace
} // namespace dsmem::core
