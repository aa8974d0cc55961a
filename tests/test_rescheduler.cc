#include "core/rescheduler.h"

#include <gtest/gtest.h>

#include "core/static_processor.h"
#include "random_trace.h"
#include "trace/instruction.h"
#include "trace/trace_stats.h"

namespace dsmem::core {
namespace {

using trace::makeBranch;
using trace::makeCompute;
using trace::makeLoad;
using trace::makeStore;
using trace::makeSync;
using trace::Op;
using trace::Trace;
using trace::TraceInst;

TraceInst
missLoad(trace::Addr addr, trace::InstIndex dep = trace::kNoSrc)
{
    TraceInst inst = makeLoad(addr, dep);
    inst.latency = 50;
    return inst;
}

/** The pass on an AoS trace, through its TraceView implementation. */
Trace
reschedule(const Trace &t, const RescheduleConfig &config,
           RescheduleStats *stats = nullptr)
{
    return rescheduleLoads(trace::TraceView(t), config, stats);
}

TEST(ReschedulerTest, RejectsZeroHoist)
{
    Trace t;
    RescheduleConfig config;
    config.max_hoist = 0;
    EXPECT_THROW(reschedule(t, config), std::invalid_argument);
}

TEST(ReschedulerTest, HoistsMissAboveIndependentComputes)
{
    Trace t;
    t.append(makeCompute(Op::IALU)); // 0
    t.append(makeCompute(Op::IALU)); // 1
    t.append(makeCompute(Op::IALU)); // 2
    t.append(missLoad(0x1000));      // 3
    t.append(makeCompute(Op::FADD, 3));

    RescheduleStats stats;
    Trace out = reschedule(t, RescheduleConfig{}, &stats);
    ASSERT_EQ(out.size(), t.size());
    EXPECT_EQ(out[0].op, Op::LOAD); // Hoisted to the top.
    EXPECT_EQ(stats.loads_moved, 1u);
    EXPECT_EQ(stats.total_hoist_distance, 3u);
    // The consumer's source follows the load to its new index.
    EXPECT_EQ(out[4].op, Op::FADD);
    EXPECT_EQ(out[4].src[0], 0u);
    EXPECT_EQ(out.validate(), out.size());
}

TEST(ReschedulerTest, NeverCrossesProducers)
{
    Trace t;
    t.append(makeCompute(Op::IALU));     // 0: address producer
    t.append(makeCompute(Op::IALU));     // 1
    t.append(missLoad(0x1000, 0));       // 2 depends on 0
    Trace out = reschedule(t, RescheduleConfig{});
    // The load may pass instruction 1 but not instruction 0.
    EXPECT_EQ(out[0].op, Op::IALU);
    EXPECT_EQ(out[1].op, Op::LOAD);
    EXPECT_EQ(out.validate(), out.size());
}

TEST(ReschedulerTest, ConservativeAliasStopsAtAnyStore)
{
    Trace t;
    t.append(makeStore(0x2000)); // 0: different address
    t.append(makeCompute(Op::IALU));
    t.append(missLoad(0x1000));

    RescheduleConfig conservative;
    Trace out_c = reschedule(t, conservative);
    EXPECT_EQ(out_c[0].op, Op::STORE);
    EXPECT_EQ(out_c[1].op, Op::LOAD); // Crossed the compute only.

    RescheduleConfig oracle;
    oracle.exact_alias = true;
    Trace out_o = reschedule(t, oracle);
    EXPECT_EQ(out_o[0].op, Op::LOAD); // Crossed the unrelated store.
}

TEST(ReschedulerTest, ExactAliasStopsAtSameAddressStore)
{
    Trace t;
    t.append(makeStore(0x1000));
    t.append(makeCompute(Op::IALU));
    t.append(missLoad(0x1000));
    RescheduleConfig oracle;
    oracle.exact_alias = true;
    Trace out = reschedule(t, oracle);
    EXPECT_EQ(out[0].op, Op::STORE);
    EXPECT_EQ(out[1].op, Op::LOAD);
}

TEST(ReschedulerTest, BranchesScopeBasicBlocks)
{
    Trace t;
    t.append(makeCompute(Op::IALU));
    t.append(makeBranch(1, true));
    t.append(makeCompute(Op::IALU));
    t.append(missLoad(0x1000));

    Trace blocked = reschedule(t, RescheduleConfig{});
    EXPECT_EQ(blocked[1].op, Op::BRANCH);
    EXPECT_EQ(blocked[2].op, Op::LOAD); // Stopped at the branch.

    RescheduleConfig speculative;
    speculative.cross_branches = true;
    Trace crossed = reschedule(t, speculative);
    EXPECT_EQ(crossed[0].op, Op::LOAD); // Superblock scheduling.
}

TEST(ReschedulerTest, SyncOpsAlwaysFence)
{
    Trace t;
    t.append(makeSync(Op::UNLOCK, 1));
    t.append(makeCompute(Op::IALU));
    t.append(missLoad(0x1000));
    RescheduleConfig config;
    config.cross_branches = true;
    config.exact_alias = true;
    Trace out = reschedule(t, config);
    EXPECT_EQ(out[0].op, Op::UNLOCK);
    EXPECT_EQ(out[1].op, Op::LOAD);
}

TEST(ReschedulerTest, MissesOnlyByDefault)
{
    Trace t;
    t.append(makeCompute(Op::IALU));
    t.append(makeLoad(0x1000)); // Hit: latency 1.
    RescheduleStats stats;
    Trace out = reschedule(t, RescheduleConfig{}, &stats);
    EXPECT_EQ(out[1].op, Op::LOAD); // Not moved.
    EXPECT_EQ(stats.loads_considered, 0u);

    RescheduleConfig all;
    all.hoist_misses_only = false;
    reschedule(t, all, &stats);
    EXPECT_EQ(stats.loads_considered, 1u);
    EXPECT_EQ(stats.loads_moved, 1u);
}

TEST(ReschedulerTest, HoistDistanceCapped)
{
    Trace t;
    for (int i = 0; i < 100; ++i)
        t.append(makeCompute(Op::IALU));
    t.append(missLoad(0x1000));
    RescheduleConfig config;
    config.max_hoist = 8;
    RescheduleStats stats;
    Trace out = reschedule(t, config, &stats);
    EXPECT_EQ(out[100 - 8].op, Op::LOAD);
    EXPECT_EQ(stats.total_hoist_distance, 8u);
}

TEST(ReschedulerTest, PreservesInstructionMultiset)
{
    Trace t = dsmem::testing::randomTrace(31337, 5000);
    Trace out = reschedule(t, RescheduleConfig{});
    ASSERT_EQ(out.size(), t.size());
    EXPECT_EQ(out.validate(), out.size());
    trace::TraceStats before = trace::computeStats(t);
    trace::TraceStats after = trace::computeStats(out);
    EXPECT_EQ(before.reads, after.reads);
    EXPECT_EQ(before.writes, after.writes);
    EXPECT_EQ(before.read_misses, after.read_misses);
    EXPECT_EQ(before.branches, after.branches);
    EXPECT_EQ(before.locks, after.locks);
}

TEST(ReschedulerTest, HelpsNonBlockingStaticProcessor)
{
    // The paper's Section 7 conjecture: rescheduling lets SS hide
    // read latency. Build a loop-like trace where each miss's use
    // follows immediately (SS gains nothing), with independent work
    // before it (rescheduling creates the needed distance).
    Trace t;
    trace::InstIndex prev = t.append(makeCompute(Op::IALU));
    for (int iter = 0; iter < 50; ++iter) {
        for (int k = 0; k < 12; ++k)
            prev = t.append(makeCompute(Op::IALU, prev));
        trace::InstIndex v = t.append(
            missLoad(static_cast<trace::Addr>(0x1000 + 64 * iter)));
        t.append(makeCompute(Op::FADD, v)); // Immediate use.
    }

    StaticConfig ss;
    ss.model = ConsistencyModel::RC;
    ss.nonblocking_reads = true;
    StaticProcessor proc(ss);

    RunResult before = proc.run(t);
    Trace scheduled = reschedule(t, RescheduleConfig{});
    RunResult after = proc.run(scheduled);
    EXPECT_LT(after.cycles + 200, before.cycles);
}

} // namespace
} // namespace dsmem::core
