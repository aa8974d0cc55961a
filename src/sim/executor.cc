#include "sim/executor.h"

#include <algorithm>

#include "core/base_processor.h"
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

RunResult
runModel(const core::TraceSource &src, const ModelSpec &spec,
         core::SimContext &ctx)
{
    switch (spec.kind) {
      case ModelSpec::Kind::BASE:
        return core::BaseProcessor().run(src, ctx);
      case ModelSpec::Kind::SSBR: {
        core::StaticConfig config;
        config.model = spec.model;
        config.nonblocking_reads = false;
        return core::StaticProcessor(config).run(src, ctx);
      }
      case ModelSpec::Kind::SS: {
        core::StaticConfig config;
        config.model = spec.model;
        config.nonblocking_reads = true;
        return core::StaticProcessor(config).run(src, ctx);
      }
      case ModelSpec::Kind::DS:
        break;
    }
    return core::DynamicProcessor(dynamicConfigFor(spec)).run(src, ctx);
}

namespace {

/**
 * Scheduling weight of one cell. A DS step does strictly more work
 * per instruction than a static model's, and BASE is a thin
 * accumulation loop; the exact numbers only need to order groups
 * sensibly.
 */
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
        return 4;
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
    // plan is a pure function of the declaration list.
    std::vector<std::vector<size_t>> families;
    std::vector<core::DynamicConfig> family_head; // First row's config.

    for (size_t s = 0; s < specs.size(); ++s) {
        if (s < row_done.size() && row_done[s])
            continue;
        if (specs[s].kind != ModelSpec::Kind::DS || lane_cap == 1) {
            groups.push_back(ExecGroup{{s}, false, rowCost(specs[s])});
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

    for (const std::vector<size_t> &family : families) {
        for (size_t at = 0; at < family.size();) {
            size_t take = lane_cap == 0
                ? family.size() - at
                : std::min(lane_cap, family.size() - at);
            ExecGroup g;
            g.rows.assign(family.begin() + at,
                          family.begin() + at + take);
            g.fused = take > 1;
            for (size_t s : g.rows)
                g.cost += rowCost(specs[s]);
            groups.push_back(std::move(g));
            at += take;
        }
    }

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
    std::vector<RunResult> out;
    out.reserve(group.rows.size());
    if (group.fused) {
        std::vector<core::DynamicConfig> configs;
        configs.reserve(group.rows.size());
        for (size_t s : group.rows)
            configs.push_back(dynamicConfigFor(specs[s]));
        for (core::DynamicResult &r :
             core::runDynamicSweep(src, configs, ctx))
            out.push_back(std::move(r));
        return out;
    }
    for (size_t s : group.rows)
        out.push_back(runModel(src, specs[s], ctx));
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
