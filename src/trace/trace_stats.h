#ifndef DSMEM_TRACE_TRACE_STATS_H
#define DSMEM_TRACE_TRACE_STATS_H

#include <cstdint>

#include "stats/histogram.h"
#include "trace/trace.h"
#include "trace/trace_view.h"

namespace dsmem::trace {

/**
 * Reference and synchronization counts over a trace, in the shape of
 * the paper's Tables 1 and 2.
 */
struct TraceStats {
    uint64_t instructions = 0;   ///< Non-sync entries (= busy cycles).
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t read_misses = 0;    ///< Loads with latency > 1.
    uint64_t write_misses = 0;   ///< Stores with latency > 1.
    uint64_t branches = 0;
    uint64_t taken_branches = 0;
    uint64_t locks = 0;
    uint64_t unlocks = 0;
    uint64_t wait_events = 0;
    uint64_t set_events = 0;
    uint64_t barriers = 0;

    /** Count one trace record (the one rule every shape shares). */
    void count(Op op, uint32_t latency, bool taken);

    /** The paper's "busy cycles": one useful cycle per instruction. */
    uint64_t busyCycles() const { return instructions; }

    /** References per thousand instructions (Table 1/2 parentheses). */
    double ratePerThousand(uint64_t count) const;

    /** Fraction of instructions that are branches (Table 3 col 1). */
    double branchFraction() const;

    /** Mean instruction distance between branches (Table 3 col 2). */
    double avgBranchDistance() const;
};

/** Scan @p t and accumulate its statistics. */
TraceStats computeStats(const Trace &t);

/** The same statistics over a view (equal for a view of @p t). */
TraceStats computeStats(const TraceView &v);

/**
 * Histogram of instruction distances between successive read misses
 * (Section 4.1.3: "90% of the read misses are a distance of 20-30
 * instructions apart" for LU). Distances are measured in trace
 * entries between consecutive loads whose annotated latency exceeds
 * one cycle.
 */
stats::Histogram readMissDistanceHistogram(const TraceView &v,
                                           uint64_t bucket_width = 4,
                                           size_t num_buckets = 64);

/**
 * Histogram of dependence distances: for every register source edge,
 * the distance in trace entries from producer to consumer. Short
 * distances are the small-window limiter identified in Section 4.1.2.
 */
stats::Histogram dependenceDistanceHistogram(const TraceView &v,
                                             uint64_t bucket_width = 4,
                                             size_t num_buckets = 64);

} // namespace dsmem::trace

#endif // DSMEM_TRACE_TRACE_STATS_H
