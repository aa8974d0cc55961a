#include "trace/trace_stats.h"

namespace dsmem::trace {

double
TraceStats::ratePerThousand(uint64_t count) const
{
    if (instructions == 0)
        return 0.0;
    return 1000.0 * static_cast<double>(count) /
        static_cast<double>(instructions);
}

double
TraceStats::branchFraction() const
{
    if (instructions == 0)
        return 0.0;
    return static_cast<double>(branches) /
        static_cast<double>(instructions);
}

double
TraceStats::avgBranchDistance() const
{
    if (branches == 0)
        return 0.0;
    return static_cast<double>(instructions) /
        static_cast<double>(branches);
}

void
TraceStats::count(Op op, uint32_t latency, bool taken)
{
    switch (op) {
      case Op::LOAD:
        ++reads;
        if (latency > 1)
            ++read_misses;
        break;
      case Op::STORE:
        ++writes;
        if (latency > 1)
            ++write_misses;
        break;
      case Op::BRANCH:
        ++branches;
        if (taken)
            ++taken_branches;
        break;
      case Op::LOCK:
        ++locks;
        break;
      case Op::UNLOCK:
        ++unlocks;
        break;
      case Op::WAIT_EVENT:
        ++wait_events;
        break;
      case Op::SET_EVENT:
        ++set_events;
        break;
      case Op::BARRIER:
        ++barriers;
        break;
      default:
        break;
    }
    if (!isSync(op))
        ++instructions;
}

TraceStats
computeStats(const Trace &t)
{
    TraceStats s;
    for (const TraceInst &inst : t)
        s.count(inst.op, inst.latency, inst.taken);
    return s;
}

TraceStats
computeStats(const TraceView &v)
{
    TraceStats s;
    for (size_t i = 0; i < v.size(); ++i)
        s.count(v.op(i), v.latency(i), v.taken(i));
    return s;
}

stats::Histogram
readMissDistanceHistogram(const TraceView &v, uint64_t bucket_width,
                          size_t num_buckets)
{
    stats::Histogram hist(bucket_width, num_buckets);
    bool seen_first = false;
    size_t last_miss = 0;
    for (size_t i = 0; i < v.size(); ++i) {
        if (v.op(i) != Op::LOAD || v.latency(i) <= 1)
            continue;
        if (seen_first)
            hist.add(i - last_miss);
        seen_first = true;
        last_miss = i;
    }
    return hist;
}

stats::Histogram
dependenceDistanceHistogram(const TraceView &v, uint64_t bucket_width,
                            size_t num_buckets)
{
    stats::Histogram hist(bucket_width, num_buckets);
    for (size_t i = 0; i < v.size(); ++i) {
        const InstIndex *src = v.srcs(i);
        for (int s = 0; s < v.numSrcs(i); ++s) {
            if (src[s] != kNoSrc)
                hist.add(i - src[s]);
        }
    }
    return hist;
}

} // namespace dsmem::trace
