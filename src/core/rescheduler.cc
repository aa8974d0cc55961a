#include "core/rescheduler.h"

#include <cassert>
#include <stdexcept>
#include <vector>

namespace dsmem::core {

using trace::InstIndex;
using trace::kNoSrc;
using trace::Op;
using trace::Trace;
using trace::TraceInst;

Trace
rescheduleLoads(const trace::TraceView &v,
                const RescheduleConfig &config, RescheduleStats *stats)
{
    if (config.max_hoist == 0)
        throw std::invalid_argument("max_hoist must be >= 1");

    RescheduleStats local;

    // True when motion of any load must stop at instruction j.
    auto is_hard_fence = [&](size_t j) {
        if (v.isSync(j))
            return true; // Compiler fences at synchronization.
        if (v.op(j) == Op::BRANCH && !config.cross_branches)
            return true;
        return false;
    };

    // True when the load at index `load` may not move above j.
    auto blocks_load = [&](size_t j, size_t load) {
        if (is_hard_fence(j))
            return true;
        if (v.op(j) == Op::STORE) {
            if (!config.exact_alias)
                return true;
            if (v.addr(j) == v.addr(load))
                return true;
        }
        // Producers of the load's sources.
        const InstIndex *src = v.srcs(load);
        for (int s = 0; s < v.numSrcs(load); ++s) {
            if (src[s] == static_cast<InstIndex>(j))
                return true;
        }
        return false;
    };

    // `order` holds original indices in the new program order.
    std::vector<InstIndex> order;
    order.reserve(v.size());

    for (size_t i = 0; i < v.size(); ++i) {
        InstIndex orig = static_cast<InstIndex>(i);

        bool candidate = v.op(i) == Op::LOAD &&
            (!config.hoist_misses_only || v.latency(i) > 1);
        if (!candidate) {
            order.push_back(orig);
            continue;
        }

        ++local.loads_considered;

        // Scan back over already-placed instructions. Instructions
        // that neither block nor feed the moving group are "passed";
        // pure-compute producers of the group are "dragged" along
        // (the load's address slice moves with it); anything else
        // stops the motion.
        std::vector<InstIndex> dragged; // Original indices, in order.
        std::vector<InstIndex> passed;  // Original indices, in order.
        auto feeds_group = [&](InstIndex cand) {
            const InstIndex *src = v.srcs(i);
            for (int s = 0; s < v.numSrcs(i); ++s)
                if (src[s] == cand)
                    return true;
            for (InstIndex d : dragged) {
                const InstIndex *dsrc = v.srcs(d);
                for (int s = 0; s < v.numSrcs(d); ++s)
                    if (dsrc[s] == cand)
                        return true;
            }
            return false;
        };

        size_t scan = order.size();
        uint32_t steps = 0;
        while (scan > 0 && steps < config.max_hoist) {
            InstIndex prev_orig = order[scan - 1];
            if (feeds_group(prev_orig)) {
                if (!config.hoist_address_slice ||
                    !v.isCompute(prev_orig)) {
                    break;
                }
                dragged.insert(dragged.begin(), prev_orig);
                --scan;
                continue;
            }
            if (blocks_load(prev_orig, i))
                break;
            passed.insert(passed.begin(), prev_orig);
            --scan;
            ++steps;
        }

        if (steps == 0) {
            // Nothing gained: restore any dragged prefix untouched.
            order.push_back(orig);
        } else {
            // Rebuild the tail: [dragged..., load, passed...].
            order.resize(scan);
            order.insert(order.end(), dragged.begin(), dragged.end());
            order.push_back(orig);
            order.insert(order.end(), passed.begin(), passed.end());
            ++local.loads_moved;
            local.total_hoist_distance += steps;
        }
    }

    // Rebuild the trace with source references remapped.
    std::vector<InstIndex> remap(v.size(), kNoSrc);
    for (size_t pos = 0; pos < order.size(); ++pos)
        remap[order[pos]] = static_cast<InstIndex>(pos);

    Trace out(v.name() + "+resched");
    out.reserve(v.size());
    for (InstIndex orig : order) {
        TraceInst inst = v.materialize(orig);
        for (int s = 0; s < inst.num_srcs; ++s) {
            assert(inst.src[s] != kNoSrc);
            inst.src[s] = remap[inst.src[s]];
        }
        out.append(inst);
    }

    if (out.validate() != out.size()) {
        throw std::logic_error(
            "rescheduling broke SSA well-formedness (bug)");
    }

    if (stats)
        *stats = local;
    return out;
}

} // namespace dsmem::core
