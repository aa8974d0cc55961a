#include "trace/trace.h"

#include <gtest/gtest.h>

#include "trace/op.h"
#include "trace/trace_stats.h"

namespace dsmem::trace {
namespace {

// ---------------------------------------------------------------------
// Op classification
// ---------------------------------------------------------------------

class OpClassTest : public ::testing::TestWithParam<Op>
{};

TEST_P(OpClassTest, CategoriesArePartition)
{
    Op op = GetParam();
    int categories = (isCompute(op) ? 1 : 0) + (isMemory(op) ? 1 : 0) +
        (isSync(op) ? 1 : 0) + (op == Op::BRANCH ? 1 : 0);
    EXPECT_EQ(categories, 1) << opName(op);
}

TEST_P(OpClassTest, FuClassConsistent)
{
    Op op = GetParam();
    FuClass fu = fuClass(op);
    if (isMemory(op) || isSync(op)) {
        EXPECT_EQ(fu, FuClass::MEM) << opName(op);
    }
    if (op == Op::BRANCH) {
        EXPECT_EQ(fu, FuClass::BRANCH);
    }
    if (op == Op::IALU || op == Op::SHIFT) {
        EXPECT_EQ(fu, FuClass::INT);
    }
}

TEST_P(OpClassTest, AcquireReleaseOnlyForSync)
{
    Op op = GetParam();
    if (isAcquire(op) || isRelease(op)) {
        EXPECT_TRUE(isSync(op)) << opName(op);
    }
    if (isSync(op)) {
        EXPECT_TRUE(isAcquire(op) || isRelease(op)) << opName(op);
    }
}

TEST_P(OpClassTest, HasName)
{
    EXPECT_NE(opName(GetParam()), "invalid");
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpClassTest,
    ::testing::Values(Op::IALU, Op::SHIFT, Op::FADD, Op::FMUL, Op::FDIV,
                      Op::FCVT, Op::LOAD, Op::STORE, Op::BRANCH,
                      Op::LOCK, Op::UNLOCK, Op::BARRIER, Op::WAIT_EVENT,
                      Op::SET_EVENT));

TEST(OpTest, BarrierIsBothAcquireAndRelease)
{
    EXPECT_TRUE(isAcquire(Op::BARRIER));
    EXPECT_TRUE(isRelease(Op::BARRIER));
}

TEST(OpTest, ValueProducers)
{
    EXPECT_TRUE(producesValue(Op::LOAD));
    EXPECT_TRUE(producesValue(Op::IALU));
    EXPECT_FALSE(producesValue(Op::STORE));
    EXPECT_FALSE(producesValue(Op::BRANCH));
    EXPECT_FALSE(producesValue(Op::LOCK));
}

// ---------------------------------------------------------------------
// Instruction builders
// ---------------------------------------------------------------------

TEST(InstructionTest, MakeCompute)
{
    TraceInst inst = makeCompute(Op::FADD, 3, 7);
    EXPECT_EQ(inst.op, Op::FADD);
    EXPECT_EQ(inst.num_srcs, 2);
    EXPECT_EQ(inst.src[0], 3u);
    EXPECT_EQ(inst.src[1], 7u);
}

TEST(InstructionTest, MakeComputeSkipsMissingSrcs)
{
    TraceInst inst = makeCompute(Op::IALU, kNoSrc, 5);
    EXPECT_EQ(inst.num_srcs, 1);
    EXPECT_EQ(inst.src[0], 5u);
}

TEST(InstructionTest, MakeLoadStore)
{
    TraceInst load = makeLoad(0x1000, 2);
    EXPECT_EQ(load.op, Op::LOAD);
    EXPECT_EQ(load.addr, 0x1000u);
    EXPECT_EQ(load.num_srcs, 1);
    EXPECT_FALSE(load.isMiss());
    load.latency = 50;
    EXPECT_TRUE(load.isMiss());

    TraceInst store = makeStore(0x2000, 1, 2, 3);
    EXPECT_EQ(store.op, Op::STORE);
    EXPECT_EQ(store.num_srcs, 3);
}

TEST(InstructionTest, MakeBranch)
{
    TraceInst inst = makeBranch(42, true, 9);
    EXPECT_EQ(inst.op, Op::BRANCH);
    EXPECT_TRUE(inst.taken);
    EXPECT_EQ(inst.branchSite(), 42u);
    EXPECT_EQ(inst.num_srcs, 1);
}

TEST(InstructionTest, MakeSync)
{
    TraceInst inst = makeSync(Op::LOCK, 3);
    EXPECT_EQ(inst.op, Op::LOCK);
    EXPECT_EQ(inst.addr, 3u);
    inst.aux = 120;
    EXPECT_EQ(inst.waitCycles(), 120u);
}

// ---------------------------------------------------------------------
// Trace container
// ---------------------------------------------------------------------

TEST(TraceTest, AppendReturnsSsaIndex)
{
    Trace t("t");
    EXPECT_EQ(t.append(makeCompute(Op::IALU)), 0u);
    EXPECT_EQ(t.append(makeLoad(8)), 1u);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.name(), "t");
}

TEST(TraceTest, ValidateAcceptsWellFormed)
{
    Trace t;
    t.append(makeCompute(Op::IALU));
    t.append(makeLoad(16, 0));
    t.append(makeCompute(Op::FADD, 1));
    t.append(makeStore(16, 2, 0));
    t.append(makeBranch(1, false, 2));
    EXPECT_EQ(t.validate(), t.size());
}

TEST(TraceTest, ValidateRejectsForwardReference)
{
    Trace t;
    TraceInst bad = makeCompute(Op::IALU);
    bad.num_srcs = 1;
    bad.src[0] = 5; // Future instruction.
    t.append(bad);
    EXPECT_EQ(t.validate(), 0u);
}

TEST(TraceTest, ValidateRejectsNonProducerSource)
{
    Trace t;
    t.append(makeStore(8)); // Stores produce no value.
    TraceInst bad = makeCompute(Op::IALU, 0);
    t.append(bad);
    EXPECT_EQ(t.validate(), 1u);
}

// ---------------------------------------------------------------------
// Trace statistics
// ---------------------------------------------------------------------

TEST(TraceStatsTest, CountsEveryCategory)
{
    Trace t;
    t.append(makeCompute(Op::IALU));
    TraceInst miss = makeLoad(16);
    miss.latency = 50;
    t.append(miss);
    t.append(makeLoad(32));
    TraceInst wmiss = makeStore(48);
    wmiss.latency = 50;
    t.append(wmiss);
    t.append(makeBranch(1, true));
    t.append(makeSync(Op::LOCK, 0));
    t.append(makeSync(Op::UNLOCK, 0));
    t.append(makeSync(Op::BARRIER, 0));
    t.append(makeSync(Op::WAIT_EVENT, 1));
    t.append(makeSync(Op::SET_EVENT, 1));

    TraceStats s = computeStats(t);
    EXPECT_EQ(s.instructions, 5u); // Sync entries excluded.
    EXPECT_EQ(s.reads, 2u);
    EXPECT_EQ(s.read_misses, 1u);
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.write_misses, 1u);
    EXPECT_EQ(s.branches, 1u);
    EXPECT_EQ(s.taken_branches, 1u);
    EXPECT_EQ(s.locks, 1u);
    EXPECT_EQ(s.unlocks, 1u);
    EXPECT_EQ(s.barriers, 1u);
    EXPECT_EQ(s.wait_events, 1u);
    EXPECT_EQ(s.set_events, 1u);
    EXPECT_EQ(s.busyCycles(), 5u);
}

TEST(TraceStatsTest, Rates)
{
    TraceStats s;
    s.instructions = 2000;
    s.branches = 200;
    EXPECT_DOUBLE_EQ(s.ratePerThousand(100), 50.0);
    EXPECT_DOUBLE_EQ(s.branchFraction(), 0.1);
    EXPECT_DOUBLE_EQ(s.avgBranchDistance(), 10.0);
}

TEST(TraceStatsTest, RatesEmptyTrace)
{
    TraceStats s;
    EXPECT_DOUBLE_EQ(s.ratePerThousand(5), 0.0);
    EXPECT_DOUBLE_EQ(s.branchFraction(), 0.0);
    EXPECT_DOUBLE_EQ(s.avgBranchDistance(), 0.0);
}

TEST(TraceStatsTest, ReadMissDistanceHistogram)
{
    Trace t;
    auto add_miss = [&]() {
        TraceInst miss = makeLoad(16);
        miss.latency = 50;
        t.append(miss);
    };
    add_miss(); // index 0
    for (int i = 0; i < 9; ++i)
        t.append(makeCompute(Op::IALU));
    add_miss(); // index 10: distance 10
    t.append(makeLoad(8)); // hit: not a miss
    add_miss(); // index 12: distance 2

    stats::Histogram h = readMissDistanceHistogram(TraceView(t), 1, 32);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.bucketCount(10), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
}

TEST(TraceStatsTest, DependenceDistanceHistogram)
{
    Trace t;
    t.append(makeCompute(Op::IALU));       // 0
    t.append(makeCompute(Op::IALU, 0));    // 1: dist 1
    t.append(makeCompute(Op::IALU, 0, 1)); // 2: dist 2 and 1
    stats::Histogram h = dependenceDistanceHistogram(TraceView(t), 1, 16);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
}

} // namespace
} // namespace dsmem::trace
