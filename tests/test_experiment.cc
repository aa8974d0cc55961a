#include "runner/trace_store.h"
#include "sim/experiment.h"

#include <gtest/gtest.h>

#include "sim/trace_bundle.h"
#include "trace/instruction.h"

namespace dsmem::sim {
namespace {

TEST(ModelSpecTest, Labels)
{
    EXPECT_EQ(ModelSpec::base().label(), "BASE");
    EXPECT_EQ(ModelSpec::ssbr(core::ConsistencyModel::SC).label(),
              "SC SSBR");
    EXPECT_EQ(ModelSpec::ss(core::ConsistencyModel::PC).label(),
              "PC SS");
    EXPECT_EQ(ModelSpec::ds(core::ConsistencyModel::RC, 64).label(),
              "RC DS-64");
    EXPECT_EQ(
        ModelSpec::ds(core::ConsistencyModel::RC, 32, true).label(),
        "RC DS-32 pbp");
    EXPECT_EQ(
        ModelSpec::ds(core::ConsistencyModel::RC, 32, true, true)
            .label(),
        "RC DS-32 pbp+nodep");
    EXPECT_EQ(ModelSpec::ds(core::ConsistencyModel::RC, 64, false,
                            false, 4)
                  .label(),
              "RC DS-64x4");
}

TEST(ModelSpecTest, Figure3ColumnSet)
{
    std::vector<ModelSpec> specs = figure3Columns();
    // BASE + 3x(SSBR+SS) + SC DS + PC DS + 5 RC DS windows = 14.
    EXPECT_EQ(specs.size(), 14u);
    EXPECT_EQ(specs.front().label(), "BASE");
    EXPECT_EQ(specs.back().label(), "RC DS-256");
}

TEST(ModelSpecTest, Figure4ColumnSet)
{
    std::vector<ModelSpec> specs = figure4Columns();
    // BASE + 5 pbp + 5 pbp+nodep.
    EXPECT_EQ(specs.size(), 11u);
    EXPECT_EQ(specs[1].label(), "RC DS-16 pbp");
    EXPECT_EQ(specs.back().label(), "RC DS-256 pbp+nodep");
}

TEST(ExperimentTest, RunModelDispatch)
{
    trace::Trace t;
    trace::TraceInst load = trace::makeLoad(0x1000);
    load.latency = 50;
    t.append(load);
    t.append(trace::makeCompute(trace::Op::IALU, 0));

    core::RunResult base = runModel(t, ModelSpec::base());
    core::RunResult ssbr =
        runModel(t, ModelSpec::ssbr(core::ConsistencyModel::RC));
    core::RunResult ss =
        runModel(t, ModelSpec::ss(core::ConsistencyModel::RC));
    core::RunResult ds =
        runModel(t, ModelSpec::ds(core::ConsistencyModel::RC, 64));
    EXPECT_EQ(base.cycles, 51u);
    EXPECT_GT(ssbr.cycles, 0u);
    EXPECT_GT(ss.cycles, 0u);
    EXPECT_GT(ds.cycles, 0u);
}

TEST(ExperimentTest, HiddenReadFraction)
{
    core::RunResult base;
    base.breakdown.read = 100;
    core::RunResult half;
    half.breakdown.read = 50;
    EXPECT_DOUBLE_EQ(hiddenReadFraction(base, half), 0.5);
    core::RunResult none;
    none.breakdown.read = 100;
    EXPECT_DOUBLE_EQ(hiddenReadFraction(base, none), 0.0);
    core::RunResult zero_base;
    EXPECT_DOUBLE_EQ(hiddenReadFraction(zero_base, half), 0.0);
}

TEST(ExperimentTest, FormatBreakdownTable)
{
    std::vector<LabelledResult> rows(2);
    rows[0].label = "BASE";
    rows[0].result.breakdown.busy = 50;
    rows[0].result.breakdown.read = 50;
    rows[0].result.cycles = 100;
    rows[1].label = "RC DS-64";
    rows[1].result.breakdown.busy = 50;
    rows[1].result.breakdown.read = 10;
    rows[1].result.breakdown.pipeline = 5;
    rows[1].result.cycles = 65;

    std::string s = formatBreakdownTable("TEST", rows, 100);
    EXPECT_NE(s.find("TEST"), std::string::npos);
    EXPECT_NE(s.find("BASE"), std::string::npos);
    EXPECT_NE(s.find("RC DS-64"), std::string::npos);
    EXPECT_NE(s.find("100.0"), std::string::npos);
    // Pipeline merged into busy: 55.0 for the DS row.
    EXPECT_NE(s.find("55.0"), std::string::npos);
}

TEST(ExperimentTest, RunModelsLabelsEveryRow)
{
    trace::Trace t;
    t.append(trace::makeCompute(trace::Op::IALU));
    std::vector<ModelSpec> specs = figure3Columns();
    std::vector<LabelledResult> rows = runModels(t, specs);
    ASSERT_EQ(rows.size(), specs.size());
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].label, specs[i].label());
}

TEST(TraceStoreMemoTest, Memoizes)
{
    runner::TraceStore store("");
    const ViewBundle &a =
        store.getView(AppId::LU, memsys::MemoryConfig{}, true);
    const ViewBundle &b =
        store.getView(AppId::LU, memsys::MemoryConfig{}, true);
    EXPECT_EQ(&a, &b); // Same object: no second MP simulation.

    memsys::MemoryConfig mem100;
    mem100.miss_latency = 100;
    const ViewBundle &c = store.getView(AppId::LU, mem100, true);
    EXPECT_NE(&a, &c);
}

} // namespace
} // namespace dsmem::sim
