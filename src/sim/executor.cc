#include "sim/executor.h"

#include <algorithm>

#include "util/simd.h"

namespace dsmem::sim {

using core::RunResult;

core::DynamicConfig
dynamicConfigFor(const ModelSpec &spec)
{
    core::DynamicConfig config;
    config.model = spec.model;
    config.window = spec.window;
    config.width = spec.width;
    config.btb.perfect = spec.perfect_bp;
    config.ignore_data_deps = spec.ignore_deps;
    return config;
}

namespace {

bool
isStatic(const ModelSpec &spec)
{
    return spec.kind != ModelSpec::Kind::DS;
}

/** The static-sweep row a BASE/SSBR/SS ModelSpec resolves to. */
core::StaticSweepRow
staticRowFor(const ModelSpec &spec)
{
    core::StaticSweepRow row;
    row.base = spec.kind == ModelSpec::Kind::BASE;
    row.config.model = spec.model;
    row.config.nonblocking_reads = spec.kind == ModelSpec::Kind::SS;
    return row;
}

} // namespace

RunResult
runModel(const core::TraceSource &src, const ModelSpec &spec,
         core::SimContext &ctx)
{
    if (isStatic(spec))
        return core::runStaticSweep(src, {staticRowFor(spec)}, ctx).front();
    return core::DynamicProcessor(dynamicConfigFor(spec)).run(src, ctx);
}

namespace {

/**
 * Scheduling weight of one cell. A DS step does strictly more work
 * per instruction than a static model's, and BASE is a thin
 * accumulation loop; the exact numbers only need to order groups
 * sensibly.
 */
constexpr uint64_t kDsRowCost = 4;

uint64_t
rowCost(const ModelSpec &spec)
{
    switch (spec.kind) {
      case ModelSpec::Kind::BASE:
        return 1;
      case ModelSpec::Kind::SSBR:
      case ModelSpec::Kind::SS:
        return 2;
      case ModelSpec::Kind::DS:
        return kDsRowCost;
    }
    return 1;
}

} // namespace

std::vector<ExecGroup>
planPhase2(const std::vector<ModelSpec> &specs,
           const std::vector<uint8_t> &row_done, size_t lane_cap)
{
    std::vector<ExecGroup> groups;

    // Families of DS rows the sweep can run in lockstep
    // (core::solSweepSupported), in first-appearance order so the
    // plan is a pure function of the declaration list; the static
    // rows form one more family (core::runStaticSweep).
    std::vector<std::vector<size_t>> families;
    std::vector<core::DynamicConfig> family_head; // First row's config.
    std::vector<size_t> statics;

    for (size_t s = 0; s < specs.size(); ++s) {
        if (s < row_done.size() && row_done[s])
            continue;
        if (lane_cap == 1) {
            groups.push_back(ExecGroup{{s}, false, rowCost(specs[s])});
            continue;
        }
        if (isStatic(specs[s])) {
            statics.push_back(s);
            continue;
        }
        const core::DynamicConfig config = dynamicConfigFor(specs[s]);
        size_t f = 0;
        for (; f < families.size(); ++f)
            if (core::solSweepSupported({family_head[f], config}))
                break;
        if (f == families.size()) {
            families.emplace_back();
            family_head.push_back(config);
        }
        families[f].push_back(s);
    }

    auto emit = [&](std::vector<size_t> rows) {
        ExecGroup g;
        g.rows = std::move(rows);
        g.fused = g.rows.size() > 1;
        for (size_t s : g.rows)
            g.cost += rowCost(specs[s]);
        groups.push_back(std::move(g));
    };
    for (const std::vector<size_t> &family : families) {
        for (size_t at = 0; at < family.size();) {
            size_t take = lane_cap == 0
                ? family.size() - at
                : std::min(lane_cap, family.size() - at);
            emit({family.begin() + at, family.begin() + at + take});
            at += take;
        }
    }
    // The static rows pack in declaration order into groups no
    // heavier than a full DS sweep (lane_cap DS rows), so a parallel
    // pool never waits on one static straggler; a lone worker
    // (lane_cap 0) runs them all in one sweep.
    const uint64_t static_cap = lane_cap == 0
        ? UINT64_MAX
        : lane_cap * kDsRowCost;
    std::vector<size_t> pack;
    uint64_t pack_cost = 0;
    for (size_t s : statics) {
        if (!pack.empty() && pack_cost + rowCost(specs[s]) > static_cap) {
            emit(std::move(pack));
            pack.clear();
            pack_cost = 0;
        }
        pack.push_back(s);
        pack_cost += rowCost(specs[s]);
    }
    if (!pack.empty())
        emit(std::move(pack));

    // Longest-first: heavy groups enter the pool before light ones so
    // the campaign tail isn't one straggler sweep. Stable, so equal
    // costs keep declaration order and the plan stays deterministic.
    std::stable_sort(groups.begin(), groups.end(),
                     [](const ExecGroup &a, const ExecGroup &b) {
                         return a.cost > b.cost;
                     });
    return groups;
}

std::vector<RunResult>
runGroup(const core::TraceSource &src, const std::vector<ModelSpec> &specs,
         const ExecGroup &group, core::SimContext &ctx)
{
    if (!group.fused) {
        std::vector<RunResult> out;
        out.reserve(group.rows.size());
        for (size_t s : group.rows)
            out.push_back(runModel(src, specs[s], ctx));
        return out;
    }
    if (isStatic(specs[group.rows.front()])) {
        std::vector<core::StaticSweepRow> rows;
        rows.reserve(group.rows.size());
        for (size_t s : group.rows)
            rows.push_back(staticRowFor(specs[s]));
        return core::runStaticSweep(src, rows, ctx);
    }
    std::vector<core::DynamicConfig> configs;
    configs.reserve(group.rows.size());
    for (size_t s : group.rows)
        configs.push_back(dynamicConfigFor(specs[s]));
    std::vector<RunResult> out;
    out.reserve(group.rows.size());
    for (core::DynamicResult &r : core::runDynamicSweep(src, configs, ctx))
        out.push_back(std::move(r));
    return out;
}

size_t
adaptiveLaneCap(size_t pending_ds_rows, unsigned jobs)
{
    if (jobs <= 1)
        return 0; // Unlimited: a lone worker gains nothing from splits.
    size_t cap = (pending_ds_rows + 2 * jobs - 1) / (2 * jobs);
    // The SoL sweep pads its lanes to whole batches, so a cap that
    // spans a batch is rounded down to whole batches: seven rows at
    // cap 4 run as 4 + 3 (eight padded lanes), at cap 5 as 5 + 2
    // (twelve).
    constexpr size_t kb = util::simd::kBatchWidth;
    if (cap >= kb)
        cap = cap / kb * kb;
    return std::max<size_t>(2, cap);
}

} // namespace dsmem::sim
