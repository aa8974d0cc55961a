#include "sim/sampling.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/byte_io.h"
#include "util/errors.h"

namespace dsmem::sim {

namespace {

constexpr char kLivePointMagic[4] = {'D', 'S', 'L', 'P'};
constexpr uint32_t kLivePointFormatVersion = 1;

/**
 * BtbConfig::valid() accepts any power-of-two set count; cap the
 * table size a .dslp file may claim so a corrupt length field cannot
 * demand a gigabyte table before the checksum check runs.
 */
constexpr uint32_t kMaxBtbEntries = 1u << 20;

/**
 * Fold a u64 into an FNV-1a state byte-by-byte, little-endian, so the
 * offset hash is identical on every host regardless of endianness.
 */
uint64_t
foldU64(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= util::kFnvPrime;
    }
    return h;
}

void
putLanePoint(util::ByteSink &sink, const core::LanePoint &pt)
{
    sink.putVarint(pt.pos);
    sink.putVarint(pt.clock);
    sink.putVarint(pt.stores.size());
    for (const core::WarmStore &ws : pt.stores) {
        sink.putVarint(ws.addr);
        sink.putVarint(ws.data_ready);
        sink.putVarint(ws.mem_completion);
    }
    sink.putVarint(pt.predictor.tick);
    sink.putVarint(pt.predictor.entries.size());
    for (const core::BranchPredictor::Snapshot::Entry &e :
         pt.predictor.entries) {
        sink.putVarint(e.site);
        sink.putByte(e.counter);
        sink.putVarint(e.last_use);
        sink.putByte(e.valid ? 1 : 0);
    }
}

core::LanePoint
getLanePoint(util::ByteSource &src, const core::BtbConfig &btb)
{
    core::LanePoint pt;
    pt.pos = src.readVarint();
    pt.clock = src.readVarint();

    uint64_t n_stores = src.readVarint();
    // Every serialized store occupies at least 3 bytes; a count the
    // remaining stream cannot possibly hold is a corrupt length
    // field, not a bigger store buffer.
    if (n_stores > src.remainingBound())
        throw util::FormatError("implausible live-point store count " +
                                std::to_string(n_stores));
    pt.stores.resize(static_cast<size_t>(n_stores));
    trace::Addr prev_addr = 0;
    for (size_t i = 0; i < pt.stores.size(); ++i) {
        core::WarmStore &ws = pt.stores[i];
        ws.addr = src.readVarint();
        ws.data_ready = src.readVarint();
        ws.mem_completion = src.readVarint();
        // Capture sorts by address and FlatMap keys are unique, so a
        // well-formed stream is strictly ascending.
        if (i > 0 && ws.addr <= prev_addr)
            throw util::FormatError(
                "live-point stores not strictly ascending");
        prev_addr = ws.addr;
    }

    pt.predictor.tick = src.readVarint();
    uint64_t n_entries = src.readVarint();
    if (n_entries != btb.entries)
        throw util::FormatError(
            "live-point predictor table size mismatch");
    if (n_entries > src.remainingBound())
        throw util::FormatError("truncated live-point predictor table");
    pt.predictor.entries.resize(static_cast<size_t>(n_entries));
    for (core::BranchPredictor::Snapshot::Entry &e :
         pt.predictor.entries) {
        e.site = src.readVarint32();
        e.counter = src.readByte();
        if (e.counter > 3)
            throw util::FormatError("live-point counter out of range");
        e.last_use = src.readVarint();
        uint8_t valid = src.readByte();
        if (valid > 1)
            throw util::FormatError(
                "live-point valid flag out of range");
        e.valid = valid != 0;
    }
    return pt;
}

} // namespace

bool
SamplingPlan::validate(std::string *why) const
{
    auto fail = [&](const char *message) {
        if (why)
            *why = message;
        return false;
    };
    if (!enabled())
        return true;
    if (detailed == 0)
        return fail("sampling plan needs detailed >= 1");
    if (warmup > period || detailed > period - warmup)
        return fail(
            "sampling window (warmup + detailed) exceeds the period");
    return true;
}

uint64_t
SamplingPlan::offsetFor(std::string_view trace_name, uint64_t n) const
{
    if (period == 0)
        return 0;
    uint64_t h = util::fnv1aUpdate(util::kFnvOffset, trace_name.data(),
                                   trace_name.size());
    h = foldU64(h, seed);
    h = foldU64(h, period);
    h = foldU64(h, n);
    return h % period;
}

std::vector<uint64_t>
SamplingPlan::windowPositions(std::string_view trace_name,
                              uint64_t n) const
{
    std::vector<uint64_t> positions;
    if (!enabled() || !validate())
        return positions;
    const uint64_t window = warmup + detailed;
    // A tail segment that does not fit whole is skipped, never
    // truncated: unequal window lengths would bias the estimator.
    for (uint64_t p = offsetFor(trace_name, n);
         p < n && window <= n - p; p += period)
        positions.push_back(p);
    return positions;
}

double
studentT95(uint64_t df)
{
    static constexpr double kTable[30] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return kTable[df - 1];
    if (df <= 40)
        return 2.021;
    if (df <= 60)
        return 2.000;
    if (df <= 120)
        return 1.980;
    return 1.960;
}

std::pair<core::RunResult, SampleSummary>
estimateFromWindows(const std::vector<core::WindowResult> &windows,
                    uint64_t n)
{
    if (windows.size() < 2)
        throw std::invalid_argument(
            "estimateFromWindows needs at least two windows");

    uint64_t steps = 0;
    core::Breakdown sum;
    uint64_t instructions = 0, branches = 0, mispredicts = 0,
             read_misses = 0;
    for (const core::WindowResult &w : windows) {
        steps += w.steps;
        sum.busy += w.r.breakdown.busy;
        sum.sync += w.r.breakdown.sync;
        sum.read += w.r.breakdown.read;
        sum.write += w.r.breakdown.write;
        sum.pipeline += w.r.breakdown.pipeline;
        instructions += w.r.instructions;
        branches += w.r.branches;
        mispredicts += w.r.mispredicts;
        read_misses += w.r.read_misses;
    }

    const double scale =
        static_cast<double>(n) / static_cast<double>(steps);
    auto scaled = [scale](uint64_t v) {
        return static_cast<uint64_t>(
            std::llround(static_cast<double>(v) * scale));
    };

    core::RunResult r;
    // Each attribution component is scaled and rounded independently;
    // cycles is their sum, so cycles == breakdown.total() holds for
    // the estimate exactly as it does for an exact run.
    r.breakdown.busy = scaled(sum.busy);
    r.breakdown.sync = scaled(sum.sync);
    r.breakdown.read = scaled(sum.read);
    r.breakdown.write = scaled(sum.write);
    r.breakdown.pipeline = scaled(sum.pipeline);
    r.cycles = r.breakdown.total();
    r.instructions = scaled(instructions);
    r.branches = scaled(branches);
    r.mispredicts = scaled(mispredicts);
    r.read_misses = scaled(read_misses);

    SampleSummary summary;
    summary.sampled = true;
    summary.windows = windows.size();
    summary.measured = steps;

    // Mean cycles per trace record over the K window means, with the
    // Student-t 95% half-width (SMARTS's per-benchmark CPI interval).
    const size_t k = windows.size();
    double mean = 0.0;
    for (const core::WindowResult &w : windows)
        mean += static_cast<double>(w.r.cycles) /
            static_cast<double>(w.steps);
    mean /= static_cast<double>(k);
    double var = 0.0;
    for (const core::WindowResult &w : windows) {
        double d = static_cast<double>(w.r.cycles) /
                static_cast<double>(w.steps) -
            mean;
        var += d * d;
    }
    var /= static_cast<double>(k - 1);
    summary.cpi_mean = mean;
    summary.ci95 = studentT95(k - 1) *
        std::sqrt(var / static_cast<double>(k));
    return {r, summary};
}

LivePointSet
computeLivePoints(const trace::TraceView &view, const SamplingPlan &plan)
{
    std::string why;
    if (!plan.enabled() || !plan.validate(&why))
        throw std::invalid_argument(
            why.empty() ? "sampling plan is disabled" : why);

    LivePointSet set;
    set.btb = core::BtbConfig{};
    set.period = plan.period;
    set.seed = plan.seed;
    set.offset = plan.offsetFor(view.name(), view.size());
    set.instructions = view.size();
    set.points = core::computeLanePoints(
        view, plan.windowPositions(view.name(), view.size()), set.btb);
    return set;
}

void
saveLivePoints(const LivePointSet &set, std::ostream &os)
{
    util::ByteSink sink(os);
    sink.put(kLivePointMagic, 4);
    sink.putU32(kLivePointFormatVersion);

    sink.beginHash();
    sink.putU32(set.btb.entries);
    sink.putU32(set.btb.associativity);
    sink.putU64(set.period);
    sink.putU64(set.seed);
    sink.putU64(set.offset);
    sink.putU64(set.instructions);
    sink.putVarint(set.points.size());
    for (const core::LanePoint &pt : set.points)
        putLanePoint(sink, pt);

    sink.putU64(sink.hashValue());
    sink.flush();
}

LivePointSet
loadLivePoints(std::istream &is)
{
    util::ByteSource src(is);
    char magic[4];
    src.read(magic, 4);
    if (std::memcmp(magic, kLivePointMagic, 4) != 0)
        throw util::FormatError("not a dsmem live-point file");
    uint32_t version = src.readU32();
    if (version != kLivePointFormatVersion)
        throw util::FormatError(
            "unsupported live-point format version " +
            std::to_string(version));

    src.beginHash();
    LivePointSet set;
    set.btb.entries = src.readU32();
    set.btb.associativity = src.readU32();
    set.btb.perfect = false;
    if (!set.btb.valid() || set.btb.entries > kMaxBtbEntries)
        throw util::FormatError("implausible live-point BTB geometry");
    set.period = src.readU64();
    set.seed = src.readU64();
    set.offset = src.readU64();
    set.instructions = src.readU64();
    if (set.period == 0 || set.offset >= set.period)
        throw util::FormatError("implausible live-point plan fields");

    uint64_t count = src.readVarint();
    // Each point needs at least a handful of bytes; bound the
    // allocation by what the stream can actually still hold.
    if (count > src.remainingBound())
        throw util::FormatError("implausible live-point count " +
                                std::to_string(count));
    set.points.reserve(static_cast<size_t>(count));
    uint64_t prev_pos = 0;
    for (uint64_t i = 0; i < count; ++i) {
        set.points.push_back(getLanePoint(src, set.btb));
        const core::LanePoint &pt = set.points.back();
        if (pt.pos >= set.instructions ||
            (i > 0 && pt.pos <= prev_pos))
            throw util::FormatError(
                "live-point positions not strictly ascending");
        prev_pos = pt.pos;
    }

    uint64_t got = src.hashValue();
    uint64_t want = src.readU64();
    if (got != want)
        throw util::FormatError("live-point checksum mismatch");
    if (!src.atEof())
        throw util::FormatError("live-point payload size mismatch");
    return set;
}

SampledCell
runModelSampled(const trace::TraceView &view, const ModelSpec &spec,
                const SamplingPlan &plan, const LivePointSet &points,
                core::SimContext &ctx)
{
    // Only the dynamically scheduled machine has a sampled path; the
    // in-order/static models are cheap enough to run exactly, and an
    // exact row is reported with sampled == false either way.
    if (spec.kind == ModelSpec::Kind::DS && plan.enabled()) {
        core::DynamicProcessor proc(dynamicConfigFor(spec));
        std::vector<core::WindowResult> windows = proc.runSampled(
            view, points.points, plan.warmup, plan.detailed, ctx);
        if (windows.size() >= 2) {
            auto [result, summary] =
                estimateFromWindows(windows, view.size());
            return {result, summary};
        }
    }
    return {runModel(view, spec, ctx), SampleSummary{}};
}

std::vector<SampledCell>
runGroupSampled(const trace::TraceView &view,
                const std::vector<ModelSpec> &specs,
                const ExecGroup &group, const SamplingPlan &plan,
                const LivePointSet &points, core::SimContext &ctx)
{
    // Sampled windows are independent (each starts from its own live
    // point), so running a fused group's rows one by one is identical
    // by construction to any batched arrangement — no sweep needed.
    std::vector<SampledCell> cells;
    cells.reserve(group.rows.size());
    for (size_t row : group.rows)
        cells.push_back(
            runModelSampled(view, specs[row], plan, points, ctx));
    return cells;
}

} // namespace dsmem::sim
