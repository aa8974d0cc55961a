#include "core/static_processor.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <vector>

#include "core/sim_context.h"
#include "core/tile_stream.h"

namespace dsmem::core {

using trace::InstIndex;
using trace::kNoSrc;
using trace::Op;
using trace::TraceInst;
using trace::TraceView;

namespace {

/** Which breakdown bucket a stall is charged to. */
enum class Bucket { READ, WRITE, SYNC };

/**
 * Running completion maxima that express the consistency model's
 * issue constraints (Figure 1 of the paper).
 */
struct Gates {
    uint64_t load_comp = 0;    ///< Previous loads performed by...
    uint64_t store_comp = 0;   ///< Previous stores/releases performed.
    uint64_t acquire_comp = 0; ///< Previous acquires performed.
    uint64_t sync_comp = 0;    ///< Previous sync ops performed (WO).

    uint64_t all() const
    {
        return std::max({load_comp, store_comp, acquire_comp});
    }
};

/**
 * FIFO buffer occupancy tracker (write buffer / read buffer): entries
 * enter with a completion time and deallocate in FIFO order.
 */
class FifoBuffer
{
  public:
    explicit FifoBuffer(uint32_t depth) : depth_(depth) {}

    /** Earliest time a slot frees when the buffer is full at @p now. */
    bool full(uint64_t now, uint64_t *free_at) const
    {
        // Count entries still occupied at `now`.
        size_t live = 0;
        for (uint64_t leave : leave_times_)
            if (leave > now)
                ++live;
        if (live < depth_)
            return false;
        // FIFO dealloc: the first still-live entry leaves first.
        for (uint64_t leave : leave_times_)
            if (leave > now) {
                *free_at = leave;
                return true;
            }
        return false;
    }

    void push(uint64_t completion)
    {
        // FIFO deallocation: a slot cannot free before its elder.
        uint64_t leave = completion;
        if (!leave_times_.empty())
            leave = std::max(leave, leave_times_.back());
        leave_times_.push_back(leave);
        // Trim entries that can no longer affect capacity decisions:
        // keep the most recent `depth_` entries.
        while (leave_times_.size() > depth_)
            leave_times_.pop_front();
    }

  private:
    uint32_t depth_;
    std::deque<uint64_t> leave_times_;
};

/**
 * FifoBuffer with O(1) operations. Leave times are non-decreasing
 * (each push maxes against its elder), so the buffer is full at `now`
 * exactly when `depth` entries have been pushed and the oldest
 * tracked one still lives (`leave > now`) — and that oldest entry is
 * the first to free. One ring of the last `depth` leave times
 * replaces the deque scans.
 *
 * The ring storage is borrowed (SimContext::StaticScratch) so a
 * recycled context reuses it allocation-free; full()/push() results
 * depend only on the last `depth` leave times, never on the vector's
 * capacity history.
 */
class FifoRing
{
  public:
    FifoRing(std::vector<uint64_t> &storage, uint32_t depth)
    {
        storage.assign(depth, 0);
        ring_ = storage.data();
        depth_ = depth;
    }

    bool full(uint64_t now, uint64_t *free_at) const
    {
        if (count_ < depth_)
            return false;
        uint64_t oldest = ring_[count_ % depth_];
        if (oldest <= now)
            return false;
        *free_at = oldest;
        return true;
    }

    void push(uint64_t completion)
    {
        uint64_t leave = completion;
        if (count_ > 0)
            leave = std::max(leave, ring_[(count_ - 1) % depth_]);
        ring_[count_ % depth_] = leave;
        ++count_;
    }

  private:
    uint64_t *ring_;
    uint64_t depth_;
    uint64_t count_ = 0;
};

struct Timeline {
    uint64_t t = 0;
    Breakdown bd;

    /** Advance to @p target charging the gap to @p bucket. */
    void advance(uint64_t target, Bucket bucket)
    {
        if (target <= t)
            return;
        uint64_t gap = target - t;
        switch (bucket) {
          case Bucket::READ:
            bd.read += gap;
            break;
          case Bucket::WRITE:
            bd.write += gap;
            break;
          case Bucket::SYNC:
            bd.sync += gap;
            break;
        }
        t = target;
    }

    /** One useful cycle. */
    void busyCycle()
    {
        bd.busy += 1;
        t += 1;
    }
};

/** Charge a gate-induced stall to the bucket of its binding term. */
void
advanceToGate(Timeline &tl, const Gates &g, uint64_t gate)
{
    if (gate <= tl.t)
        return;
    Bucket bucket = Bucket::WRITE;
    uint64_t best = g.store_comp;
    if (g.load_comp > best) {
        best = g.load_comp;
        bucket = Bucket::READ;
    }
    if (g.acquire_comp > best)
        bucket = Bucket::SYNC;
    tl.advance(gate, bucket);
}

// Gate selectors over {load_comp, store_comp, acquire_comp,
// sync_comp}, hoisted out of the per-access switches (same scheme as
// the dynamic processor's).
enum GateTerm : unsigned {
    kGateLoad = 1u << 0,
    kGateStore = 1u << 1,
    kGateAcquire = 1u << 2,
    kGateSync = 1u << 3,
};

constexpr unsigned kGateAll = kGateLoad | kGateStore | kGateAcquire;

struct GateSelectors {
    unsigned load = 0;
    unsigned store = 0;         ///< Ordinary stores.
    unsigned release = kGateAll; ///< Releases, every model.
    unsigned acquire = 0;
    bool serialize_stores = false; ///< WO/RC: one write issue per cycle.
};

constexpr GateSelectors
gateSelectorsFor(ConsistencyModel model)
{
    GateSelectors sel;
    switch (model) {
      case ConsistencyModel::SC:
        sel.load = kGateAll;
        sel.store = kGateAll;
        sel.acquire = kGateAll;
        break;
      case ConsistencyModel::PC:
        sel.load = kGateLoad | kGateAcquire;
        sel.store = kGateAll;
        sel.acquire = kGateLoad | kGateAcquire;
        break;
      case ConsistencyModel::WO:
        sel.load = kGateSync;
        sel.store = kGateSync;
        sel.acquire = kGateAll; // A fence waits for everything.
        sel.serialize_stores = true;
        break;
      case ConsistencyModel::RC:
        sel.load = kGateAcquire;
        sel.store = kGateAcquire;
        sel.acquire = kGateAcquire;
        sel.serialize_stores = true;
        break;
    }
    return sel;
}

inline uint64_t
selectGate(const Gates &g, unsigned mask)
{
    uint64_t gate = 0;
    if (mask & kGateLoad)
        gate = g.load_comp;
    if (mask & kGateStore)
        gate = std::max(gate, g.store_comp);
    if (mask & kGateAcquire)
        gate = std::max(gate, g.acquire_comp);
    if (mask & kGateSync)
        gate = std::max(gate, g.sync_comp);
    return gate;
}

} // namespace

StaticProcessor::StaticProcessor(const StaticConfig &config)
    : config_(config)
{
    if (config.write_buffer_depth == 0)
        throw std::invalid_argument("write buffer depth must be >= 1");
    if (config.nonblocking_reads && config.read_buffer_depth == 0)
        throw std::invalid_argument("read buffer depth must be >= 1");
}

RunResult
StaticProcessor::run(const trace::Trace &trace) const
{
    return run(TraceView(trace));
}

// ------------------------------------------------------------------
// Production loops over a TraceSource, read span by span in order.
// Each model's running state is one row of a static sweep, stepped
// over every span; a single run is a one-row sweep. SSBR/SS are
// scheduling-identical to runReference; the differences are
// mechanical:
//  - FIFO occupancy checks run on O(1) rings (leave times are
//    non-decreasing, so "full" reduces to one compare of the oldest
//    tracked entry),
//  - gate switches are hoisted into per-model selector masks.
// ------------------------------------------------------------------

namespace {

/** The BASE machine's running totals: one row of a static sweep. */
class BaseRow
{
  public:
    void step(const trace::TileSpan &span)
    {
        // Locals, not members, so the counters stay in registers.
        Breakdown bd = bd_;
        uint64_t instructions = instructions_, branches = branches_,
                 read_misses = read_misses_;
        for (size_t i = span.lo(); i < span.hi(); ++i) {
            const uint32_t latency = span.latency(i);
            switch (span.op(i)) {
              case Op::LOAD:
                ++instructions;
                bd.busy += 1;
                bd.read += latency - 1;
                if (latency > 1)
                    ++read_misses;
                break;

              case Op::STORE:
                ++instructions;
                bd.busy += 1;
                bd.write += latency - 1;
                break;

              case Op::BRANCH:
                ++instructions;
                ++branches;
                bd.busy += 1;
                break;

              case Op::LOCK:
              case Op::WAIT_EVENT:
              case Op::BARRIER:
                // Full acquire stall: contention wait plus access latency.
                bd.sync += span.waitCycles(i) + latency;
                break;

              case Op::UNLOCK:
              case Op::SET_EVENT:
                // Releases count toward write time (Section 4.1).
                bd.write += latency;
                break;

              default:
                ++instructions;
                bd.busy += 1;
                break;
            }
        }
        bd_ = bd;
        instructions_ = instructions;
        branches_ = branches;
        read_misses_ = read_misses;
    }

    RunResult finish() const
    {
        RunResult r;
        r.breakdown = bd_;
        r.cycles = bd_.total();
        r.instructions = instructions_;
        r.branches = branches_;
        r.read_misses = read_misses_;
        return r;
    }

  private:
    Breakdown bd_;
    uint64_t instructions_ = 0, branches_ = 0, read_misses_ = 0;
};

/** An SSBR/SS processor's running state: one row of a static sweep. */
class StaticRow
{
  public:
    StaticRow(const StaticConfig &config,
              SimContext::StaticScratch &scratch)
        : sel_(gateSelectorsFor(config.model)),
          nonblocking_(config.nonblocking_reads),
          write_buffer_(scratch.write_ring, config.write_buffer_depth),
          read_buffer_(scratch.read_ring, config.read_buffer_depth),
          pending_loads_(scratch.pending_loads)
    {
        pending_loads_.clear();
        pending_loads_.reserve(config.read_buffer_depth);
    }

    void step(const trace::TileSpan &span);

    /**
     * Drain: execution finishes when pending loads and buffered
     * writes complete.
     */
    RunResult finish()
    {
        uint64_t drain = std::max(gates_.load_comp, gates_.store_comp);
        if (drain > tl_.t) {
            // Attribute the drain to whichever dominates.
            if (gates_.store_comp >= gates_.load_comp)
                tl_.advance(drain, Bucket::WRITE);
            else
                tl_.advance(drain, Bucket::READ);
        }
        r_.breakdown = tl_.bd;
        r_.cycles = tl_.t;
        return r_;
    }

  private:
    const GateSelectors sel_;
    const bool nonblocking_;
    RunResult r_;
    Timeline tl_;
    Gates gates_;
    FifoRing write_buffer_;
    FifoRing read_buffer_;
    std::vector<PendingLoadSlot> &pending_loads_;
    uint64_t last_store_issue_ = 0;
    bool any_store_issued_ = false;
};

void
StaticRow::step(const trace::TileSpan &span)
{
    // Locals, not members, so the running state stays in registers
    // across the loop's stores and out-of-line calls; written back
    // once per span.
    const GateSelectors sel = sel_;
    const bool nonblocking = nonblocking_;
    RunResult r = r_;
    Timeline tl = tl_;
    Gates gates = gates_;
    FifoRing write_buffer = write_buffer_;
    FifoRing read_buffer = read_buffer_;
    std::vector<PendingLoadSlot> &pending_loads = pending_loads_;
    uint64_t last_store_issue = last_store_issue_;
    bool any_store_issued = any_store_issued_;

    // SS first-use rule: stall until every source produced by a
    // still-pending load has completed. Entries are keyed by the
    // producer's index, so the consumer's own sources suffice.
    auto wait_for_operands = [&](size_t i) {
        if (pending_loads.empty())
            return;
        const InstIndex *srcs = span.srcs(i);
        for (uint8_t s = 0; s < span.numSrcs(i); ++s) {
            for (const PendingLoadSlot &pl : pending_loads) {
                if (pl.producer == srcs[s])
                    tl.advance(pl.completion, Bucket::READ);
            }
        }
        // Drop completed entries.
        std::erase_if(pending_loads, [&](const PendingLoadSlot &pl) {
            return pl.completion <= tl.t;
        });
    };

    auto store_issue_gate = [&](bool release) -> uint64_t {
        uint64_t gate =
            selectGate(gates, release ? sel.release : sel.store);
        if (sel.serialize_stores && any_store_issued)
            gate = std::max(gate, last_store_issue + 1);
        return gate;
    };

    for (size_t i = span.lo(); i < span.hi(); ++i) {
        const Op op = span.op(i);
        const uint32_t latency = span.latency(i);
        wait_for_operands(i);

        switch (op) {
          case Op::LOAD: {
            if (nonblocking) {
                uint64_t free_at;
                if (read_buffer.full(tl.t, &free_at))
                    tl.advance(free_at, Bucket::READ);
            }
            uint64_t gate = selectGate(gates, sel.load);
            advanceToGate(tl, gates, gate);
            uint64_t issue = tl.t;
            uint64_t completion = issue + latency;
            if (latency > 1)
                ++r.read_misses;
            if (nonblocking) {
                // Issue and continue; stall at first use.
                tl.busyCycle();
                read_buffer.push(completion);
                if (completion > tl.t) {
                    pending_loads.push_back(
                        {static_cast<InstIndex>(i), completion});
                }
            } else {
                // Blocking read: one busy cycle plus the stall.
                tl.busyCycle();
                tl.advance(completion, Bucket::READ);
            }
            gates.load_comp = std::max(gates.load_comp, completion);
            ++r.instructions;
            break;
          }

          case Op::STORE: {
            uint64_t free_at;
            if (write_buffer.full(tl.t, &free_at))
                tl.advance(free_at, Bucket::WRITE);
            tl.busyCycle();
            uint64_t issue = std::max(tl.t, store_issue_gate(false));
            uint64_t completion = issue + latency;
            write_buffer.push(completion);
            gates.store_comp = std::max(gates.store_comp, completion);
            last_store_issue = issue;
            any_store_issued = true;
            ++r.instructions;
            break;
          }

          case Op::BRANCH: {
            tl.busyCycle();
            ++r.instructions;
            ++r.branches;
            break;
          }

          case Op::LOCK:
          case Op::WAIT_EVENT:
          case Op::BARRIER: {
            uint64_t gate = selectGate(gates, sel.acquire);
            advanceToGate(tl, gates, gate);
            uint64_t completion = tl.t + span.waitCycles(i) + latency;
            tl.advance(completion, Bucket::SYNC);
            gates.acquire_comp = std::max(gates.acquire_comp, completion);
            gates.sync_comp = std::max(gates.sync_comp, completion);
            break;
          }

          case Op::UNLOCK:
          case Op::SET_EVENT: {
            uint64_t free_at;
            if (write_buffer.full(tl.t, &free_at))
                tl.advance(free_at, Bucket::WRITE);
            // One cycle to hand the release to the write buffer.
            tl.advance(tl.t + 1, Bucket::WRITE);
            uint64_t issue = std::max(tl.t, store_issue_gate(true));
            uint64_t completion = issue + latency;
            write_buffer.push(completion);
            gates.store_comp = std::max(gates.store_comp, completion);
            gates.sync_comp = std::max(gates.sync_comp, completion);
            last_store_issue = issue;
            any_store_issued = true;
            break;
          }

          default: { // Compute
            tl.busyCycle();
            ++r.instructions;
            break;
          }
        }
    }

    r_ = r;
    tl_ = tl;
    gates_ = gates;
    write_buffer_ = write_buffer;
    read_buffer_ = read_buffer;
    last_store_issue_ = last_store_issue;
    any_store_issued_ = any_store_issued;
}

} // namespace

RunResult
StaticProcessor::run(const TraceSource &src) const
{
    SimContext ctx;
    return run(src, ctx);
}

RunResult
StaticProcessor::run(const TraceSource &src, SimContext &ctx) const
{
    return runStaticSweep(src, {StaticSweepRow{false, config_}}, ctx)
        .front();
}

std::vector<RunResult>
runStaticSweep(const TraceSource &src,
               const std::vector<StaticSweepRow> &rows, SimContext &ctx)
{
    // Row k keeps its state in bases or statics; slot[k] says where.
    std::vector<BaseRow> bases;
    std::vector<StaticRow> statics;
    std::vector<size_t> slot(rows.size());
    statics.reserve(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) {
        if (rows[k].base) {
            slot[k] = bases.size();
            bases.emplace_back();
        } else {
            const StaticConfig &config = rows[k].config;
            if (config.write_buffer_depth == 0 ||
                (config.nonblocking_reads && config.read_buffer_depth == 0))
                throw std::invalid_argument(
                    "static sweep: buffer depth must be >= 1");
            slot[k] = statics.size();
            statics.emplace_back(config, ctx.staticScratch(k));
        }
    }

    // Each span is read (and, for a chunked trace, decoded) once and
    // stepped through every row while it is cache-hot. The rows read
    // no address, fu or flags column, so a tile decodes without them.
    detail::TileStream stream(src, ctx, trace::TileColumns::kStatic);
    trace::TileSpan next;
    while (stream.next(next)) {
        // A copy the stream never sees, so its column pointers stay
        // in registers across the rows' loops.
        const trace::TileSpan span = next;
        for (BaseRow &row : bases)
            row.step(span);
        for (StaticRow &row : statics)
            row.step(span);
    }

    std::vector<RunResult> out;
    out.reserve(rows.size());
    for (size_t k = 0; k < rows.size(); ++k)
        out.push_back(rows[k].base ? bases[slot[k]].finish()
                                   : statics[slot[k]].finish());
    return out;
}

// ------------------------------------------------------------------
// Reference implementation: the original loop, kept verbatim as the
// oracle for the randomized equivalence suite and bench_hotloop's
// pre-optimization baseline. Do not optimize.
// ------------------------------------------------------------------
RunResult
StaticProcessor::runReference(const trace::Trace &trace) const
{
    const ConsistencyModel model = config_.model;
    RunResult r;
    Timeline tl;
    Gates gates;
    FifoBuffer write_buffer(config_.write_buffer_depth);
    FifoBuffer read_buffer(config_.read_buffer_depth);
    std::vector<PendingLoadSlot> pending_loads;
    uint64_t last_store_issue = 0;
    bool any_store_issued = false;

    auto load_issue_gate = [&]() -> uint64_t {
        switch (model) {
          case ConsistencyModel::SC:
            return gates.all();
          case ConsistencyModel::PC:
            return std::max(gates.load_comp, gates.acquire_comp);
          case ConsistencyModel::WO:
            return gates.sync_comp;
          case ConsistencyModel::RC:
            return gates.acquire_comp;
        }
        return 0;
    };

    auto store_issue_gate = [&](bool release) -> uint64_t {
        switch (model) {
          case ConsistencyModel::SC:
            return gates.all();
          case ConsistencyModel::PC:
            return gates.all();
          case ConsistencyModel::WO:
          case ConsistencyModel::RC: {
            uint64_t ordinary_gate = model == ConsistencyModel::WO
                ? gates.sync_comp : gates.acquire_comp;
            uint64_t gate = release ? gates.all() : ordinary_gate;
            if (any_store_issued)
                gate = std::max(gate, last_store_issue + 1);
            return gate;
          }
        }
        return 0;
    };

    auto acquire_issue_gate = [&]() -> uint64_t {
        switch (model) {
          case ConsistencyModel::SC:
            return gates.all();
          case ConsistencyModel::PC:
            return std::max(gates.load_comp, gates.acquire_comp);
          case ConsistencyModel::WO:
            // A synchronization operation is a fence: it waits for
            // every previous access to perform.
            return gates.all();
          case ConsistencyModel::RC:
            return gates.acquire_comp;
        }
        return 0;
    };

    // Stall until every source operand produced by a still-pending
    // load has completed (SS first-use rule). SSBR never has pending
    // loads, so this is a no-op there.
    auto wait_for_operands = [&](const TraceInst &inst) {
        if (pending_loads.empty())
            return;
        for (int s = 0; s < inst.num_srcs; ++s) {
            InstIndex src = inst.src[s];
            if (src == kNoSrc)
                continue;
            for (const PendingLoadSlot &pl : pending_loads) {
                if (pl.producer == src)
                    tl.advance(pl.completion, Bucket::READ);
            }
        }
        // Drop completed entries.
        std::erase_if(pending_loads, [&](const PendingLoadSlot &pl) {
            return pl.completion <= tl.t;
        });
    };

    for (size_t i = 0; i < trace.size(); ++i) {
        const TraceInst &inst = trace[i];
        InstIndex idx = static_cast<InstIndex>(i);

        switch (inst.op) {
          case Op::LOAD: {
            wait_for_operands(inst);
            if (config_.nonblocking_reads) {
                uint64_t free_at;
                if (read_buffer.full(tl.t, &free_at))
                    tl.advance(free_at, Bucket::READ);
            }
            uint64_t gate = load_issue_gate();
            advanceToGate(tl, gates, gate);
            uint64_t issue = tl.t;
            uint64_t completion = issue + inst.latency;
            if (inst.latency > 1)
                ++r.read_misses;
            if (config_.nonblocking_reads) {
                // Issue and continue; stall at first use.
                tl.busyCycle();
                read_buffer.push(completion);
                if (completion > tl.t)
                    pending_loads.push_back({idx, completion});
            } else {
                // Blocking read: one busy cycle plus the stall.
                tl.busyCycle();
                tl.advance(completion, Bucket::READ);
            }
            gates.load_comp = std::max(gates.load_comp, completion);
            ++r.instructions;
            break;
          }

          case Op::STORE: {
            wait_for_operands(inst);
            uint64_t free_at;
            if (write_buffer.full(tl.t, &free_at))
                tl.advance(free_at, Bucket::WRITE);
            tl.busyCycle();
            uint64_t issue = std::max(tl.t, store_issue_gate(false));
            uint64_t completion = issue + inst.latency;
            write_buffer.push(completion);
            gates.store_comp = std::max(gates.store_comp, completion);
            last_store_issue = issue;
            any_store_issued = true;
            ++r.instructions;
            break;
          }

          case Op::BRANCH: {
            wait_for_operands(inst);
            tl.busyCycle();
            ++r.instructions;
            ++r.branches;
            break;
          }

          case Op::LOCK:
          case Op::WAIT_EVENT:
          case Op::BARRIER: {
            wait_for_operands(inst);
            uint64_t gate = acquire_issue_gate();
            advanceToGate(tl, gates, gate);
            uint64_t completion =
                tl.t + inst.waitCycles() + inst.latency;
            tl.advance(completion, Bucket::SYNC);
            gates.acquire_comp =
                std::max(gates.acquire_comp, completion);
            gates.sync_comp = std::max(gates.sync_comp, completion);
            break;
          }

          case Op::UNLOCK:
          case Op::SET_EVENT: {
            wait_for_operands(inst);
            uint64_t free_at;
            if (write_buffer.full(tl.t, &free_at))
                tl.advance(free_at, Bucket::WRITE);
            // One cycle to hand the release to the write buffer.
            tl.advance(tl.t + 1, Bucket::WRITE);
            uint64_t issue = std::max(tl.t, store_issue_gate(true));
            uint64_t completion = issue + inst.latency;
            write_buffer.push(completion);
            gates.store_comp = std::max(gates.store_comp, completion);
            gates.sync_comp = std::max(gates.sync_comp, completion);
            last_store_issue = issue;
            any_store_issued = true;
            break;
          }

          default: { // Compute
            wait_for_operands(inst);
            tl.busyCycle();
            ++r.instructions;
            break;
          }
        }
    }

    // Drain: execution finishes when pending loads and buffered
    // writes complete.
    uint64_t drain = std::max(gates.load_comp, gates.store_comp);
    if (drain > tl.t) {
        // Attribute the drain to whichever dominates.
        if (gates.store_comp >= gates.load_comp)
            tl.advance(drain, Bucket::WRITE);
        else
            tl.advance(drain, Bucket::READ);
    }

    r.breakdown = tl.bd;
    r.cycles = tl.t;
    return r;
}

} // namespace dsmem::core
