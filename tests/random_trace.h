#ifndef DSMEM_TESTS_RANDOM_TRACE_H
#define DSMEM_TESTS_RANDOM_TRACE_H

#include <vector>

#include "apps/rng.h"
#include "trace/trace.h"

namespace dsmem::testing {

/**
 * Instruction mix of randomTrace, in percent; synchronization takes
 * the rest, split evenly between acquires, releases and barriers.
 * The defaults are the mix every property test was written against.
 */
struct RandomMix {
    uint32_t compute = 40;
    uint32_t load = 25;
    uint32_t store = 15;
    uint32_t branch = 14;
    uint32_t addresses = 64;    ///< Distinct 16-byte-spaced words.
    uint32_t miss_latency = 50; ///< Latency of a quarter of accesses.
    uint32_t branch_sites = 8;  ///< Distinct static branches.
};

/**
 * Generate a random but well-formed SSA trace for property tests:
 * a mix of compute ops, hit/miss loads and stores with register
 * dependences on recent producers, branches over a handful of sites,
 * and occasional synchronization operations.
 */
inline trace::Trace
randomTrace(uint64_t seed, size_t n, const RandomMix &mix = {})
{
    const uint32_t to_load = mix.compute;
    const uint32_t to_store = to_load + mix.load;
    const uint32_t to_branch = to_store + mix.store;
    const uint32_t to_sync = to_branch + mix.branch;
    const uint32_t sync_third = (100 - to_sync) / 3;
    apps::Rng rng(seed);
    trace::Trace t("random");
    std::vector<trace::InstIndex> producers;

    auto recent_producer = [&]() -> trace::InstIndex {
        if (producers.empty())
            return trace::kNoSrc;
        size_t window = std::min<size_t>(producers.size(), 32);
        size_t idx = producers.size() - 1 - rng.below(window);
        return producers[idx];
    };

    for (size_t i = 0; i < n; ++i) {
        uint64_t kind = rng.below(100);
        trace::TraceInst inst;
        if (kind < to_load) { // Compute.
            static const trace::Op ops[] = {
                trace::Op::IALU, trace::Op::SHIFT, trace::Op::FADD,
                trace::Op::FMUL, trace::Op::FDIV, trace::Op::FCVT};
            inst = trace::makeCompute(ops[rng.below(6)],
                                      recent_producer(),
                                      recent_producer());
        } else if (kind < to_store) { // Load.
            inst = trace::makeLoad(
                0x1000 + static_cast<trace::Addr>(
                             rng.below(mix.addresses)) * 16,
                recent_producer());
            inst.latency = rng.below(4) == 0 ? mix.miss_latency : 1;
        } else if (kind < to_branch) { // Store.
            inst = trace::makeStore(
                0x1000 + static_cast<trace::Addr>(
                             rng.below(mix.addresses)) * 16,
                recent_producer(), recent_producer());
            inst.latency = rng.below(4) == 0 ? mix.miss_latency : 1;
        } else if (kind < to_sync) { // Branch.
            inst = trace::makeBranch(
                static_cast<uint32_t>(1 + rng.below(mix.branch_sites)),
                rng.below(2) == 0, recent_producer());
        } else if (kind < to_sync + sync_third) { // Acquire.
            inst = trace::makeSync(trace::Op::LOCK, 1);
            inst.latency = 50;
            inst.aux = static_cast<uint32_t>(rng.below(100));
        } else if (kind < to_sync + 2 * sync_third) { // Release.
            inst = trace::makeSync(trace::Op::UNLOCK, 1);
            inst.latency = rng.below(2) == 0 ? 50 : 1;
        } else { // Barrier.
            inst = trace::makeSync(trace::Op::BARRIER, 2);
            inst.latency = 50;
            inst.aux = static_cast<uint32_t>(rng.below(300));
        }
        trace::InstIndex idx = t.append(inst);
        if (trace::producesValue(inst.op))
            producers.push_back(idx);
    }
    return t;
}

} // namespace dsmem::testing

#endif // DSMEM_TESTS_RANDOM_TRACE_H
