#include "core/prefetcher.h"

#include <cstdlib>
#include <stdexcept>
#include <vector>

namespace dsmem::core {

using trace::Addr;
using trace::Op;
using trace::Trace;
using trace::TraceInst;

namespace {

struct RptEntry {
    bool valid = false;
    Addr region = 0;
    Addr last_addr = 0;
    int64_t stride = 0;
    uint32_t confidence = 0;
    uint64_t last_use = 0;
};

} // namespace

Trace
applyStridePrefetcher(const trace::TraceView &v,
                      const PrefetchConfig &config, PrefetchStats *stats)
{
    if (config.table_entries == 0)
        throw std::invalid_argument("prefetcher needs >= 1 entry");
    if (config.region_bytes == 0)
        throw std::invalid_argument("region_bytes must be >= 1");

    std::vector<RptEntry> table(config.table_entries);
    uint64_t tick = 0;
    PrefetchStats local;

    Trace out(v.name() + "+prefetch");
    out.reserve(v.size());

    for (size_t i = 0; i < v.size(); ++i) {
        TraceInst copy = v.materialize(i);
        if (copy.op == Op::LOAD && copy.latency > 1) {
            ++local.read_misses;
            ++tick;

            Addr region = copy.addr / config.region_bytes;
            RptEntry *entry = nullptr;
            RptEntry *victim = &table[0];
            for (RptEntry &candidate : table) {
                if (candidate.valid && candidate.region == region) {
                    entry = &candidate;
                    break;
                }
                if (!candidate.valid ||
                    candidate.last_use < victim->last_use) {
                    victim = &candidate;
                }
            }

            if (entry == nullptr) {
                // Allocate: no prediction on a fresh region.
                *victim = RptEntry{true, region, copy.addr, 0, 0, tick};
            } else {
                entry->last_use = tick;
                int64_t stride = static_cast<int64_t>(copy.addr) -
                    static_cast<int64_t>(entry->last_addr);
                bool plausible = stride != 0 &&
                    std::llabs(stride) <=
                        static_cast<int64_t>(config.max_stride);
                if (plausible && stride == entry->stride) {
                    if (entry->confidence < 1000)
                        ++entry->confidence;
                    if (entry->confidence >= config.confirmations) {
                        // The miss was predicted and prefetched.
                        copy.latency = 1;
                        ++local.covered;
                    }
                } else {
                    entry->stride = plausible ? stride : 0;
                    entry->confidence = 0;
                }
                entry->last_addr = copy.addr;
            }
        }
        out.append(copy);
    }

    if (stats)
        *stats = local;
    return out;
}

} // namespace dsmem::core
