#include "core/dynamic_processor.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/lane.h"
#include "core/sim_context.h"
#include "core/slot_allocator.h"
#include "core/sol_sweep.h"
#include "core/tile_stream.h"
#include "trace/chunked_view.h"
#include "util/dary_heap.h"
#include "util/flat_map.h"
#include "util/simd.h"

namespace dsmem::core {

using trace::Addr;
using trace::InstIndex;
using trace::kNoSrc;
using trace::Op;
using trace::TraceInst;
using trace::TraceView;

namespace {

/** Completion-time maxima implementing the consistency constraints. */
struct Gates {
    uint64_t load_comp = 0;
    uint64_t store_comp = 0;
    uint64_t acquire_comp = 0;
    uint64_t sync_comp = 0; ///< Any sync op performed (WO fences).

    uint64_t all() const
    {
        return std::max({load_comp, store_comp, acquire_comp});
    }
};

/** Pending-store info for load bypassing/forwarding. */
struct StoreInfo {
    uint64_t data_ready;     ///< When the store's value exists.
    uint64_t mem_completion; ///< When the store performs in memory.
};

} // namespace

using detail::Lane;
using detail::validateConfig;

DynamicProcessor::DynamicProcessor(const DynamicConfig &config)
    : config_(config)
{
    validateConfig(config);
}

DynamicResult
DynamicProcessor::run(const trace::Trace &trace) const
{
    return run(TraceView(trace));
}

// ------------------------------------------------------------------
// The production hot loop over the SoA view: a one-lane tiled sweep.
// Scheduling decisions are identical to runReference (the equivalence
// suite drives both on randomized traces); the per-instruction logic
// lives in Lane::step (core/lane.h), shared verbatim with the fused
// window sweeps.
// ------------------------------------------------------------------
DynamicResult
DynamicProcessor::run(const trace::TraceView &v) const
{
    SimContext ctx;
    return run(v, ctx);
}

DynamicResult
DynamicProcessor::run(const trace::TraceView &v, SimContext &ctx) const
{
    return std::move(
        runDynamicSweep(v, {config_}, ctx, SweepMode::PerLaneTiled)
            .front());
}

// ------------------------------------------------------------------
// Fused window sweep: time every config in one pass over the trace.
//
// A campaign sweep reads the same trace once per cell; for K window
// sizes of one (trace, model, latency) tuple that is K passes over
// tens of megabytes of SoA arrays. Stepping K independent lanes per
// instruction instead streams the operand arrays through the cache
// once, amortizing the memory traffic across every lane. Lanes share
// nothing — each has its own gates, rings, allocators, and predictor
// — so per-window results are bit-identical to K single-cell runs
// (enforced by tests/test_executor.cc).
// ------------------------------------------------------------------
namespace {

/**
 * Tiled per-lane pass (the always-available executor). Each lane runs
 * a block of instructions before the next lane starts it, so a lane's
 * rings and tables stay L1-resident through the block (stepping lanes
 * interleaved per instruction thrashes them), while the block's slice
 * of the operand arrays is still served from cache for every lane
 * after the first. The block is one chunk, so a chunked source's
 * tiles are single blocks. Lanes are fully independent, so any
 * interleaving of per-lane step sequences is bit-identical.
 */
std::vector<DynamicResult>
runTiledSweep(const TraceSource &src,
              const std::vector<DynamicConfig> &configs, SimContext &ctx)
{
    const size_t k = configs.size();
    std::vector<Lane> lanes(k);
    for (size_t j = 0; j < k; ++j) {
        validateConfig(configs[j]);
        lanes[j].bind(configs[j], ctx.lane(j));
    }

    constexpr size_t kBlock = trace::ChunkedView::kChunkInstrs;
    detail::TileStream stream(src, ctx);
    trace::TileSpan span;
    while (stream.next(span)) {
        for (size_t base = span.lo(); base < span.hi(); base += kBlock) {
            const size_t end = std::min(span.hi(), base + kBlock);
            for (Lane &lane : lanes)
                for (size_t i = base; i < end; ++i)
                    lane.step(span, i);
        }
    }

    std::vector<DynamicResult> out;
    out.reserve(k);
    for (Lane &lane : lanes) {
        lane.finish();
        out.push_back(std::move(lane.r));
    }
    return out;
}

/** SoL with the best batch type the host can run right now. */
std::vector<DynamicResult>
runSolBest(const TraceSource &src,
           const std::vector<DynamicConfig> &configs, SimContext &ctx)
{
    if (util::simd::forceScalar() || !detail::solSimdRuntimeOk())
        return detail::runSolSweepScalar(src, configs, ctx);
    return detail::runSolSweepSimd(src, configs, ctx);
}

} // namespace

std::vector<DynamicResult>
runDynamicSweep(const TraceSource &src,
                const std::vector<DynamicConfig> &configs,
                SimContext &ctx, SweepMode mode)
{
    if (configs.empty())
        return {};
    switch (mode) {
      case SweepMode::PerLaneTiled:
        return runTiledSweep(src, configs, ctx);
      case SweepMode::SoL:
      case SweepMode::SoLScalar:
        if (!solSweepSupported(configs))
            throw std::invalid_argument(
                "configs not runnable on the struct-of-lanes path "
                "(see solSweepSupported)");
        if (mode == SweepMode::SoLScalar)
            return detail::runSolSweepScalar(src, configs, ctx);
        return runSolBest(src, configs, ctx);
      case SweepMode::Auto:
        break;
    }
    // Auto: lockstep pays once the per-instruction dispatch is
    // amortized over at least two lanes; a single lane or an
    // unsupported config mix takes the tiled pass.
    if (configs.size() >= 2 && solSweepSupported(configs))
        return runSolBest(src, configs, ctx);
    return runTiledSweep(src, configs, ctx);
}

// ------------------------------------------------------------------
// Functional warming: the fast-forward model of the sampled runner.
//
// A retire-at-fetch architectural walk — one clock per instruction,
// plus the non-hideable acquire wait — that keeps exactly the state a
// detailed window needs warm on entry: the branch predictor (fed the
// same (site, taken) sequence the detailed lane would feed it, so its
// table is bit-identical to the full run's at every position) and the
// pending-store forwarding set (timed on the functional clock, the
// same store-buffer-liveness sweep as the detailed lane). One pass
// serves every (model, window, width) cell of a sweep: none of those
// parameters enters the warm state.
// ------------------------------------------------------------------
std::vector<LanePoint>
computeLanePoints(const trace::TraceView &v,
                  const std::vector<uint64_t> &positions,
                  const BtbConfig &btb)
{
    if (!btb.valid())
        throw std::invalid_argument("invalid BTB configuration");

    std::vector<LanePoint> out;
    out.reserve(positions.size());

    BranchPredictor predictor(btb);
    util::FlatMap<Addr, StoreForward> pending(64);
    uint64_t clock = 0;

    auto capture = [&](uint64_t pos) {
        LanePoint pt;
        pt.pos = pos;
        pt.clock = clock;
        pending.forEach([&](Addr addr, const StoreForward &s) {
            // Entries whose write has performed can never forward.
            if (s.mem_completion > clock)
                pt.stores.push_back(
                    {addr, s.data_ready, s.mem_completion});
        });
        // forEach order is table order; sort for a canonical,
        // serialization-stable point.
        std::sort(pt.stores.begin(), pt.stores.end(),
                  [](const WarmStore &a, const WarmStore &b) {
                      return a.addr < b.addr;
                  });
        pt.predictor = predictor.snapshot();
        out.push_back(std::move(pt));
    };

    const size_t n = v.size();
    size_t next = 0;
    for (size_t i = 0; i < n && next < positions.size(); ++i) {
        if (i == positions[next]) {
            capture(i);
            ++next;
        }
        const Op op = v.op(i);
        ++clock;
        if (v.flags(i) & TraceView::kAcquire)
            clock += v.waitCycles(i);
        if (op == Op::BRANCH) {
            predictor.predict(v.branchSite(i), v.taken(i));
        } else if (op == Op::STORE) {
            if (pending.nearCapacity()) {
                pending.retain([&](Addr, const StoreForward &s) {
                    return s.mem_completion > clock;
                });
            }
            pending.insert(v.addr(i),
                           {clock, clock + v.latency(i)});
        }
    }
    if (next < positions.size())
        throw std::invalid_argument(
            "live-point positions must be ascending and < trace size");
    return out;
}

std::vector<WindowResult>
DynamicProcessor::runSampled(const trace::TraceView &v,
                             const std::vector<LanePoint> &points,
                             uint64_t warmup, uint64_t detailed,
                             SimContext &ctx) const
{
    validateConfig(config_);
    if (detailed == 0)
        throw std::invalid_argument("detailed window must be >= 1");

    const size_t n = v.size();
    const trace::TileSpan span(v);
    std::vector<WindowResult> out;
    out.reserve(points.size());
    Lane lane;
    for (const LanePoint &pt : points) {
        // A window that would run past the trace tail is skipped, not
        // truncated: unequal window lengths would bias the estimator.
        if (pt.pos >= n || warmup + detailed > n - pt.pos)
            continue;
        lane.bind(config_, ctx.lane(0));
        lane.restore(pt);

        size_t i = pt.pos;
        const size_t measure_start = pt.pos + warmup;
        for (; i < measure_start; ++i)
            lane.step(span, i);

        const Breakdown bd0 = lane.r.breakdown;
        const uint64_t in0 = lane.r.instructions;
        const uint64_t br0 = lane.r.branches;
        const uint64_t mp0 = lane.r.mispredicts;
        const uint64_t rm0 = lane.r.read_misses;

        const size_t measure_end = measure_start + detailed;
        for (; i < measure_end; ++i)
            lane.step(span, i);

        WindowResult w;
        w.start = measure_start;
        w.steps = detailed;
        w.r.breakdown.busy = lane.r.breakdown.busy - bd0.busy;
        w.r.breakdown.sync = lane.r.breakdown.sync - bd0.sync;
        w.r.breakdown.read = lane.r.breakdown.read - bd0.read;
        w.r.breakdown.write = lane.r.breakdown.write - bd0.write;
        w.r.breakdown.pipeline =
            lane.r.breakdown.pipeline - bd0.pipeline;
        w.r.cycles = w.r.breakdown.total();
        w.r.instructions = lane.r.instructions - in0;
        w.r.branches = lane.r.branches - br0;
        w.r.mispredicts = lane.r.mispredicts - mp0;
        w.r.read_misses = lane.r.read_misses - rm0;
        out.push_back(std::move(w));
    }
    return out;
}

// ------------------------------------------------------------------
// Reference implementation: the original AoS scheduling loop, kept
// verbatim. Do not optimize — it is the oracle the view-based loop is
// verified against and the baseline bench_hotloop reports speedups
// over.
// ------------------------------------------------------------------
DynamicResult
DynamicProcessor::runReference(const trace::Trace &trace) const
{
    const ConsistencyModel model = config_.model;
    const uint32_t W = config_.window;
    const uint32_t width = config_.width;
    const uint32_t sb_depth = config_.storeBufferDepth();

    DynamicResult r;
    BranchPredictor predictor(config_.btb);

    // Per-functional-unit-class slot allocators. Multi-issue machines
    // get a second integer ALU (Johnson's design); everything else is
    // a single unit. The MEM class is the single cache port.
    SlotAllocator fu[trace::kNumFuClasses] = {
        SlotAllocator(width >= 4 ? 2 : 1), // INT
        SlotAllocator(1),                  // BRANCH
        SlotAllocator(1),                  // MEM (cache port)
        SlotAllocator(1),                  // FP_ADD
        SlotAllocator(1),                  // FP_MUL
        SlotAllocator(1),                  // FP_DIV
        SlotAllocator(1),                  // FP_CVT
    };

    // Rolling state, all O(window).
    std::vector<uint64_t> completion_ring(W, 0); // value-usable time
    std::vector<uint64_t> retire_ring(W, 0);
    std::vector<uint64_t> decode_ring(width, 0);
    std::vector<uint64_t> sb_leave_ring(sb_depth, 0); // FIFO dealloc
    uint64_t store_count = 0;

    std::unordered_map<Addr, StoreInfo> last_store;

    // Free-window slot pool (only used when config_.free_window).
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>> slot_heap;

    Gates gates;
    uint64_t fetch_stall_until = 0; // first fetchable cycle after flush
    uint64_t prev_retire = 0;
    bool first_retire = true;
    uint64_t prune_mark = 0;
    uint64_t occupancy_sum = 0;

    // Lockup-free cache MSHRs: with a finite count, a new miss may
    // not issue until the K-th previous miss has performed (FIFO
    // approximation). 0 = unlimited (the paper's assumption).
    const uint32_t mshrs = config_.mshrs;
    std::vector<uint64_t> mshr_ring(mshrs == 0 ? 1 : mshrs, 0);
    uint64_t miss_count = 0;
    auto mshr_slot_free = [&]() -> uint64_t {
        if (mshrs == 0 || miss_count < mshrs)
            return 0;
        return mshr_ring[miss_count % mshrs];
    };
    auto allocate_mshr = [&](uint64_t completion) {
        if (mshrs == 0)
            return;
        uint64_t leave = completion;
        if (miss_count > 0) {
            leave = std::max(
                leave, mshr_ring[(miss_count - 1) % mshrs]);
        }
        mshr_ring[miss_count % mshrs] = leave;
        ++miss_count;
    };

    Breakdown &bd = r.breakdown;

    auto ring_completion = [&](size_t i, InstIndex src) -> uint64_t {
        // A producer more than a window behind has retired and
        // committed to the register file before this instruction
        // decoded, so its value is ready immediately.
        if (i - static_cast<size_t>(src) > W)
            return 0;
        return completion_ring[src % W];
    };

    auto load_gate = [&]() -> uint64_t {
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

    auto store_gate = [&]() -> uint64_t {
        switch (model) {
          case ConsistencyModel::SC:
            return gates.all();
          case ConsistencyModel::PC:
            return gates.all();
          case ConsistencyModel::WO:
            return gates.sync_comp;
          case ConsistencyModel::RC:
            return gates.acquire_comp;
        }
        return 0;
    };

    auto release_gate = [&]() -> uint64_t {
        // A release may not issue until all previous accesses have
        // performed — under every model (for WO it is also a fence).
        return gates.all();
    };

    auto acquire_gate = [&]() -> uint64_t {
        switch (model) {
          case ConsistencyModel::SC:
            return gates.all();
          case ConsistencyModel::PC:
            return std::max(gates.load_comp, gates.acquire_comp);
          case ConsistencyModel::WO:
            // A fence waits for everything before it.
            return gates.all();
          case ConsistencyModel::RC:
            return gates.acquire_comp;
        }
        return 0;
    };

    const size_t n = trace.size();
    for (size_t i = 0; i < n; ++i) {
        const TraceInst &inst = trace[i];

        // -------- Decode: fetch rate, ROB space, fetch stalls ------
        uint64_t decode = fetch_stall_until;
        if (i >= width)
            decode = std::max(decode, decode_ring[i % width] + 1);
        if (config_.free_window) {
            // Section-5 ablation: a window slot frees as soon as its
            // instruction completes; a new instruction takes the
            // earliest-freed slot.
            if (slot_heap.size() >= W) {
                decode = std::max(decode, slot_heap.top() + 1);
                slot_heap.pop();
            }
        } else if (i >= W) {
            // FIFO deallocation: instruction i reuses the slot of
            // instruction i-W, freed at its in-order retirement.
            decode = std::max(decode, retire_ring[i % W] + 1);
        }

        // -------- Operand readiness -------------------------------
        uint64_t ready = decode + 1;
        if (!config_.ignore_data_deps) {
            for (int s = 0; s < inst.num_srcs; ++s) {
                InstIndex src = inst.src[s];
                if (src == kNoSrc)
                    continue;
                ready = std::max(ready, ring_completion(i, src));
            }
        }

        // -------- Schedule by kind ---------------------------------
        uint64_t completion = 0;   // value-usable / performed time
        uint64_t rob_complete = 0; // when the ROB entry may retire
        // A load stalled by the consistency gate on pending stores is
        // write time, not read time (e.g. SC serializing loads behind
        // store completions).
        bool load_store_bound = false;

        switch (inst.op) {
          case Op::LOAD: {
            // Speculative reads issue past the SC constraints; the
            // rollback hardware validates them at retirement (no
            // violations arise from a fixed-interleaving trace).
            uint64_t gate = config_.sc_speculation
                ? gates.acquire_comp : load_gate();
            load_store_bound = gate > ready &&
                gates.store_comp >= gates.load_comp &&
                gates.store_comp >= gates.acquire_comp;
            uint64_t request = std::max(ready, gate);
            if (inst.latency > 1)
                request = std::max(request, mshr_slot_free());
            uint64_t mem_issue =
                fu[static_cast<size_t>(trace::FuClass::MEM)]
                    .allocate(request);
            bool forwarded = false;
            auto it = last_store.find(inst.addr);
            if (it != last_store.end() &&
                it->second.mem_completion > mem_issue) {
                // Pending store to the same address: dependence check
                // on the store buffer forwards the value.
                completion =
                    std::max(mem_issue, it->second.data_ready) + 1;
                forwarded = true;
            } else {
                completion = mem_issue + inst.latency;
            }
            rob_complete = completion;
            if (inst.latency > 1) {
                ++r.read_misses;
                if (!forwarded)
                    allocate_mshr(completion);
                if (config_.collect_read_delay && !forwarded)
                    r.read_issue_delay.add(mem_issue - decode);
            }
            gates.load_comp = std::max(gates.load_comp, completion);
            break;
          }

          case Op::STORE: {
            // A store leaves the ROB once its operands are ready and
            // a store buffer slot is free; the buffer performs the
            // write in the background (footnote 2 of the paper).
            uint64_t slot_free = 0;
            if (store_count >= sb_depth)
                slot_free = sb_leave_ring[store_count % sb_depth];
            rob_complete = std::max(ready, slot_free);
            completion = rob_complete;
            break;
          }

          case Op::BRANCH: {
            uint64_t exec =
                fu[static_cast<size_t>(trace::FuClass::BRANCH)]
                    .allocate(ready);
            completion = exec + 1;
            rob_complete = completion;
            ++r.branches;
            bool correct = config_.perfect_branch_prediction ||
                predictor.predict(inst.branchSite(), inst.taken);
            if (!correct) {
                ++r.mispredicts;
                // Wrong-path fetch: the correct path is fetched the
                // cycle after the branch resolves.
                fetch_stall_until =
                    std::max(fetch_stall_until, completion);
            }
            break;
          }

          case Op::LOCK:
          case Op::WAIT_EVENT:
          case Op::BARRIER: {
            // The access latency of the synchronization variable can
            // be overlapped like any read; the contention/imbalance
            // wait is anchored at retirement below, since no amount
            // of lookahead makes another processor release earlier
            // (Section 4.1.2).
            uint64_t request = std::max(ready, acquire_gate());
            uint64_t mem_issue =
                fu[static_cast<size_t>(trace::FuClass::MEM)]
                    .allocate(request);
            completion = mem_issue + inst.latency;
            rob_complete = completion;
            break;
          }

          case Op::UNLOCK:
          case Op::SET_EVENT: {
            // Release: store-like, but gated on all previous accesses.
            uint64_t slot_free = 0;
            if (store_count >= sb_depth)
                slot_free = sb_leave_ring[store_count % sb_depth];
            rob_complete = std::max(ready, slot_free);
            completion = rob_complete;
            break;
          }

          default: { // Compute
            uint64_t exec =
                fu[static_cast<size_t>(trace::fuClass(inst.op))]
                    .allocate(ready);
            completion = exec + 1;
            rob_complete = completion;
            break;
          }
        }

        // -------- In-order retirement ------------------------------
        uint64_t retire = rob_complete;
        if (!first_retire)
            retire = std::max(retire, prev_retire);
        if (i >= width)
            retire = std::max(retire, retire_ring[(i - width) % W] + 1);
        if (trace::isAcquire(inst.op)) {
            // Non-hideable contention/imbalance stall; the grant also
            // gates every subsequent access under all models.
            retire += inst.waitCycles();
            gates.acquire_comp = std::max(gates.acquire_comp, retire);
            gates.sync_comp = std::max(gates.sync_comp, retire);
        }

        // -------- Post-retire memory issue for stores/releases ----
        if (inst.op == Op::STORE || inst.op == Op::UNLOCK ||
            inst.op == Op::SET_EVENT) {
            bool release = inst.op != Op::STORE;
            uint64_t gate = release ? release_gate() : store_gate();
            uint64_t request = std::max(retire, gate);
            if (inst.latency > 1)
                request = std::max(request, mshr_slot_free());

            // Non-binding store prefetch: fetch ownership as soon as
            // the address is known; the ordered write then performs
            // on a local line.
            uint64_t effective_latency = inst.latency;
            if (config_.sc_speculation && inst.latency > 1) {
                uint64_t prefetch_issue =
                    fu[static_cast<size_t>(trace::FuClass::MEM)]
                        .allocate(ready);
                uint64_t prefetch_done =
                    prefetch_issue + inst.latency;
                // The write still issues in order, but only waits for
                // whatever part of the fetch is still outstanding.
                effective_latency = 1;
                if (prefetch_done > request) {
                    effective_latency = std::max<uint64_t>(
                        1, prefetch_done - request);
                }
            }
            uint64_t mem_issue =
                fu[static_cast<size_t>(trace::FuClass::MEM)]
                    .allocate(request);
            uint64_t mem_completion = mem_issue + effective_latency;
            gates.store_comp =
                std::max(gates.store_comp, mem_completion);
            if (inst.op == Op::STORE) {
                last_store[inst.addr] = {ready, mem_completion};
            } else {
                // Releases are fences under WO.
                gates.sync_comp =
                    std::max(gates.sync_comp, mem_completion);
            }
            if (inst.latency > 1)
                allocate_mshr(mem_completion);

            // Store buffer slot occupied from ROB retirement until
            // the write performs; FIFO deallocation.
            uint64_t leave = mem_completion;
            if (store_count > 0) {
                uint64_t prev_leave =
                    sb_leave_ring[(store_count - 1) % sb_depth];
                leave = std::max(leave, prev_leave);
            }
            sb_leave_ring[store_count % sb_depth] = leave;
            ++store_count;
        }

        // -------- Cycle attribution --------------------------------
        uint64_t contribution =
            first_retire ? retire + 1 : retire - prev_retire;
        bool is_sync_op = trace::isSync(inst.op);
        bool is_acquire = trace::isAcquire(inst.op);
        if (is_sync_op) {
            if (is_acquire)
                bd.sync += contribution;
            else
                bd.write += contribution;
        } else {
            ++r.instructions;
            uint64_t slot = std::min<uint64_t>(contribution, 1);
            bd.busy += slot;
            uint64_t gap = contribution - slot;
            switch (inst.op) {
              case Op::LOAD:
                if (load_store_bound)
                    bd.write += gap;
                else
                    bd.read += gap;
                break;
              case Op::STORE:
                bd.write += gap;
                break;
              default:
                bd.pipeline += gap;
                break;
            }
        }

        occupancy_sum += retire - decode + 1;
        if (config_.free_window)
            slot_heap.push(completion);

        // -------- Roll rings ---------------------------------------
        completion_ring[i % W] = completion;
        retire_ring[i % W] = retire;
        decode_ring[i % width] = decode;
        prev_retire = retire;
        first_retire = false;

        // Bound allocator memory: nothing can be requested before the
        // current decode cycle anymore.
        if (decode > prune_mark + 65536) {
            prune_mark = decode;
            for (auto &alloc : fu)
                alloc.prune(prune_mark);
            // Stale forwarding entries cannot match pending stores.
            std::erase_if(last_store, [&](const auto &kv) {
                return kv.second.mem_completion < prune_mark;
            });
        }
    }

    r.cycles = bd.total();
    r.avg_window_occupancy = r.cycles == 0
        ? 0.0
        : static_cast<double>(occupancy_sum) /
            static_cast<double>(r.cycles);
    return r;
}

} // namespace dsmem::core
