#ifndef DSMEM_CORE_LANE_H
#define DSMEM_CORE_LANE_H

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/dynamic_processor.h"
#include "core/sim_context.h"
#include "core/slot_allocator.h"
#include "trace/chunked_view.h"
#include "trace/trace_view.h"

// ------------------------------------------------------------------
// Internal header: the per-instruction scheduling step of the
// dynamically scheduled processor, shared by the single-cell run
// (dynamic_processor.cc), the sampled runner, and both sweep
// executors (the per-lane tiled pass and the struct-of-lanes
// lockstep pass in sol_sweep.h). Not part of the public API.
// ------------------------------------------------------------------

namespace dsmem::core::detail {

// ------------------------------------------------------------------
// Precomputed consistency-gate selectors for the view-based loop.
//
// A gate is the max over a subset of the four completion maxima; the
// subset depends only on the consistency model, so the per-access
// switch of the reference loop is hoisted into bitmask selectors
// computed once per run. Bit i selects gate term i below.
// ------------------------------------------------------------------
enum GateTerm : unsigned {
    kGateLoad = 1u << 0,
    kGateStore = 1u << 1,
    kGateAcquire = 1u << 2,
    kGateSync = 1u << 3,
};

/** "All previous accesses performed" (Gates::all — sync excluded). */
constexpr unsigned kGateAll = kGateLoad | kGateStore | kGateAcquire;

struct GateSelectors {
    unsigned load = 0;
    unsigned store = 0;
    unsigned acquire = 0;
    // Releases gate on kGateAll under every model.
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
        break;
      case ConsistencyModel::RC:
        sel.load = kGateAcquire;
        sel.store = kGateAcquire;
        sel.acquire = kGateAcquire;
        break;
    }
    return sel;
}

/** Max of the gate terms selected by @p mask. */
inline uint64_t
selectGate(const uint64_t terms[4], unsigned mask)
{
    uint64_t gate = 0;
    if (mask & kGateLoad)
        gate = terms[0];
    if (mask & kGateStore)
        gate = std::max(gate, terms[1]);
    if (mask & kGateAcquire)
        gate = std::max(gate, terms[2]);
    if (mask & kGateSync)
        gate = std::max(gate, terms[3]);
    return gate;
}

inline void
validateConfig(const DynamicConfig &config)
{
    if (config.window == 0)
        throw std::invalid_argument("window must be >= 1");
    if (config.width == 0 || config.width > config.window)
        throw std::invalid_argument("width must be in [1, window]");
    if (!config.btb.valid())
        throw std::invalid_argument("invalid BTB configuration");
}

/**
 * Size @p ring for a cell needing @p n entries without re-zeroing
 * what the steps overwrite anyway: every ring entry is written at
 * step i before any step reads it (completion/retire/decode/store
 * buffer/MSHR reads all target a slot the rolling index has already
 * passed), so a warm ring's stale contents are unreachable and only
 * *growth* needs initialized storage. The ring keeps its high-water
 * size — Lane uses the data() pointer with its own modulus, never
 * size(). Returns the bytes assign(n, 0) would have written and this
 * path did not (the SimContext rebind saving, counted by
 * tests/test_executor.cc).
 */
inline uint64_t
ensureRing(std::vector<uint64_t> &ring, size_t n)
{
    const size_t old = ring.size();
    if (old >= n)
        return n * sizeof(uint64_t);
    ring.resize(n);
    return old * sizeof(uint64_t);
}

// ------------------------------------------------------------------
// One window-lane of the production loop: the per-instruction
// scheduling step of run(), factored out so a single-cell run and the
// fused window sweeps execute the exact same code. Bit-identity
// between the paths holds by construction — there is only one copy of
// the scheduling logic — and tests/test_executor.cc enforces it end
// to end.
//
// Container storage is borrowed from a SimContext::DynLane (recycled
// across cells); the Lane itself holds only config constants and
// rolling scalars. Lanes never touch shared state, so K of them can
// be stepped interleaved over one trace pass.
// ------------------------------------------------------------------
struct Lane {
    // Configuration constants, hoisted out of the step.
    uint32_t W = 1;
    uint32_t width = 1;
    uint32_t sb_depth = 1;
    uint32_t mshrs = 0;
    bool free_window = false;
    bool sc_speculation = false;
    bool ignore_data_deps = false;
    bool perfect_bp = false;
    bool collect_read_delay = false;
    GateSelectors sel;
    unsigned load_sel = 0;

    // Borrowed storage (see core::SimContext).
    SimContext::DynLane *st = nullptr;
    uint64_t *completion_ring = nullptr; // value-usable time, size W
    uint64_t *retire_ring = nullptr;     // size W
    uint64_t *decode_ring = nullptr;     // size width
    uint64_t *sb_leave_ring = nullptr;   // FIFO dealloc, size sb_depth
    uint64_t *mshr_ring = nullptr;
    RingSlotAllocator *fu = nullptr; // [trace::kNumFuClasses]
    RingSlotAllocator *mem_fu = nullptr;

    // Rolling state, all O(window).
    uint64_t gates[4] = {0, 0, 0, 0}; // load, store, acquire, sync
    uint64_t store_count = 0;
    uint64_t miss_count = 0;
    uint64_t fetch_stall_until = 0; // first fetchable cycle after flush
    uint64_t prev_retire = 0;
    uint64_t occupancy_sum = 0;
    bool first_retire = true;
    DynamicResult r;

    /** Adopt @p config and re-initialize @p state for a fresh run. */
    void bind(const DynamicConfig &config, SimContext::DynLane &state)
    {
        W = config.window;
        width = config.width;
        sb_depth = config.storeBufferDepth();
        mshrs = config.mshrs;
        free_window = config.free_window;
        sc_speculation = config.sc_speculation;
        ignore_data_deps = config.ignore_data_deps;
        perfect_bp = config.btb.perfect;
        collect_read_delay = config.collect_read_delay;
        sel = gateSelectorsFor(config.model);
        load_sel = sc_speculation ? kGateAcquire : sel.load;

        st = &state;
        uint64_t skipped = 0;
        skipped += ensureRing(state.completion_ring, W);
        skipped += ensureRing(state.retire_ring, W);
        skipped += ensureRing(state.decode_ring, width);
        skipped += ensureRing(state.sb_leave_ring, sb_depth);
        skipped += ensureRing(state.mshr_ring, mshrs == 0 ? 1 : mshrs);
        state.rebind_bytes_skipped += skipped;
        completion_ring = state.completion_ring.data();
        retire_ring = state.retire_ring.data();
        decode_ring = state.decode_ring.data();
        sb_leave_ring = state.sb_leave_ring.data();
        mshr_ring = state.mshr_ring.data();

        // Per-FU-class cycle allocators: multi-issue machines get a
        // second integer ALU (Johnson's design); everything else is a
        // single unit. MEM is the single cache port.
        for (size_t c = 0; c < trace::kNumFuClasses; ++c)
            state.fu[c].reset(1);
        state.fu[static_cast<size_t>(trace::FuClass::INT)].reset(
            width >= 4 ? 2 : 1);
        fu = state.fu;
        mem_fu = &state.fu[static_cast<size_t>(trace::FuClass::MEM)];

        state.last_store.clear();
        state.slot_heap.clear();
        if (free_window)
            state.slot_heap.reserve(W + 1);
        state.predictor.reconfigure(config.btb);

        gates[0] = gates[1] = gates[2] = gates[3] = 0;
        store_count = 0;
        miss_count = 0;
        fetch_stall_until = 0;
        prev_retire = 0;
        occupancy_sum = 0;
        first_retire = true;
        r = DynamicResult{};
    }

    /**
     * Seed the lane with live-point state so stepping resumes at
     * pt.pos: every ring, gate, and rolling cycle marker is set to
     * the point's clock (a uniform shift — the scheduling step only
     * ever takes maxima and differences of these, so the absolute
     * level cannot change any window-internal cycle delta), the
     * predictor table is restored bit-exactly, and the pending-store
     * map is rebuilt from the warm entries. Must follow bind().
     */
    void restore(const LanePoint &pt)
    {
        const uint64_t clock = pt.clock;
        std::fill(completion_ring, completion_ring + W, clock);
        std::fill(retire_ring, retire_ring + W, clock);
        std::fill(decode_ring, decode_ring + width, clock);
        std::fill(sb_leave_ring, sb_leave_ring + sb_depth, clock);
        std::fill(mshr_ring, mshr_ring + (mshrs == 0 ? 1 : mshrs),
                  clock);
        gates[0] = gates[1] = gates[2] = gates[3] = clock;
        // Zero counts leave the first sb_depth stores (first `mshrs`
        // misses) ungated after the restore — vacuously equivalent to
        // a full ring of entries that all left by `clock`.
        store_count = 0;
        miss_count = 0;
        fetch_stall_until = clock;
        prev_retire = clock;
        first_retire = false;
        occupancy_sum = 0;
        r = DynamicResult{};
        if (free_window) {
            // A window's worth of slots, all freed by `clock`.
            for (uint32_t s = 0; s < W; ++s)
                st->slot_heap.push(clock);
        }
        st->predictor.restore(pt.predictor);
        for (const WarmStore &ws : pt.stores)
            st->last_store.insert(
                ws.addr, {ws.data_ready, ws.mem_completion});
    }

    uint64_t mshrSlotFree() const
    {
        if (mshrs == 0 || miss_count < mshrs)
            return 0;
        return mshr_ring[miss_count % mshrs];
    }

    void allocateMshr(uint64_t completion)
    {
        if (mshrs == 0)
            return;
        uint64_t leave = completion;
        if (miss_count > 0)
            leave = std::max(leave, mshr_ring[(miss_count - 1) % mshrs]);
        mshr_ring[miss_count % mshrs] = leave;
        ++miss_count;
    }

    uint64_t ringCompletion(size_t i, trace::InstIndex src) const
    {
        // A producer more than a window behind retired before this
        // instruction decoded; its value is ready immediately.
        if (i - static_cast<size_t>(src) > W)
            return 0;
        return completion_ring[src % W];
    }

    /**
     * Schedule trace instruction @p i (the body of run()'s loop).
     * @p v is any span holding i — the whole flat view or one decoded
     * ChunkedView tile (see core::TraceSource). The step reads the
     * span only at index i, so one instantiation serves either
     * residency, which is how chunked results stay bit-identical to
     * flat ones by construction.
     */
    void step(const trace::TileSpan &v, size_t i)
    {
        using trace::Op;
        using trace::TraceView;
        const Op op = v.op(i);
        const uint32_t latency = v.latency(i);
        Breakdown &bd = r.breakdown;

        // -------- Decode: fetch rate, ROB space, fetch stalls ------
        uint64_t decode = fetch_stall_until;
        if (i >= width)
            decode = std::max(decode, decode_ring[i % width] + 1);
        if (free_window) {
            // Section-5 ablation: a window slot frees as soon as its
            // instruction completes; a new instruction takes the
            // earliest-freed slot.
            if (st->slot_heap.size() >= W) {
                decode = std::max(decode, st->slot_heap.top() + 1);
                st->slot_heap.pop();
            }
        } else if (i >= W) {
            // FIFO deallocation: instruction i reuses the slot of
            // instruction i-W, freed at its in-order retirement.
            decode = std::max(decode, retire_ring[i % W] + 1);
        }

        // No request targets a cycle below this instruction's decode,
        // and decode is non-decreasing — the allocators may reclaim
        // every cycle cell below it.
        for (size_t c = 0; c < trace::kNumFuClasses; ++c)
            fu[c].advanceWatermark(decode);

        // -------- Operand readiness -------------------------------
        uint64_t ready = decode + 1;
        if (!ignore_data_deps) {
            const trace::InstIndex *src = v.srcs(i);
            const int num_srcs = v.numSrcs(i);
            for (int s = 0; s < num_srcs; ++s) {
                if (src[s] == trace::kNoSrc)
                    continue;
                ready = std::max(ready, ringCompletion(i, src[s]));
            }
        }

        // -------- Schedule by kind ---------------------------------
        uint64_t completion = 0;   // value-usable / performed time
        uint64_t rob_complete = 0; // when the ROB entry may retire
        // A load stalled by the consistency gate on pending stores is
        // write time, not read time (e.g. SC serializing loads behind
        // store completions).
        bool load_store_bound = false;

        switch (op) {
          case Op::LOAD: {
            // Speculative reads issue past the SC constraints; the
            // rollback hardware validates them at retirement (no
            // violations arise from a fixed-interleaving trace).
            uint64_t gate = selectGate(gates, load_sel);
            load_store_bound = gate > ready &&
                gates[1] >= gates[0] && gates[1] >= gates[2];
            uint64_t request = std::max(ready, gate);
            if (latency > 1)
                request = std::max(request, mshrSlotFree());
            uint64_t mem_issue = mem_fu->allocate(request);
            bool forwarded = false;
            const StoreForward *info = st->last_store.find(v.addr(i));
            if (info != nullptr && info->mem_completion > mem_issue) {
                // Pending store to the same address: dependence check
                // on the store buffer forwards the value.
                completion =
                    std::max(mem_issue, info->data_ready) + 1;
                forwarded = true;
            } else {
                completion = mem_issue + latency;
            }
            rob_complete = completion;
            if (latency > 1) {
                ++r.read_misses;
                if (!forwarded)
                    allocateMshr(completion);
                if (collect_read_delay && !forwarded)
                    r.read_issue_delay.add(mem_issue - decode);
            }
            gates[0] = std::max(gates[0], completion);
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
            bool correct = perfect_bp ||
                st->predictor.predict(v.branchSite(i), v.taken(i));
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
            // wait is anchored at retirement below (Section 4.1.2).
            uint64_t request =
                std::max(ready, selectGate(gates, sel.acquire));
            uint64_t mem_issue = mem_fu->allocate(request);
            completion = mem_issue + latency;
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
                fu[static_cast<size_t>(v.fu(i))].allocate(ready);
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
        const uint8_t flags = v.flags(i);
        if (flags & TraceView::kAcquire) {
            // Non-hideable contention/imbalance stall; the grant also
            // gates every subsequent access under all models.
            retire += v.waitCycles(i);
            gates[2] = std::max(gates[2], retire);
            gates[3] = std::max(gates[3], retire);
        }

        // -------- Post-retire memory issue for stores/releases ----
        if (op == Op::STORE || op == Op::UNLOCK ||
            op == Op::SET_EVENT) {
            bool release = op != Op::STORE;
            uint64_t gate = release
                ? selectGate(gates, kGateAll)
                : selectGate(gates, sel.store);
            uint64_t request = std::max(retire, gate);
            if (latency > 1)
                request = std::max(request, mshrSlotFree());

            // Non-binding store prefetch: fetch ownership as soon as
            // the address is known; the ordered write then performs
            // on a local line.
            uint64_t effective_latency = latency;
            if (sc_speculation && latency > 1) {
                uint64_t prefetch_issue = mem_fu->allocate(ready);
                uint64_t prefetch_done = prefetch_issue + latency;
                // The write still issues in order, but only waits for
                // whatever part of the fetch is still outstanding.
                effective_latency = 1;
                if (prefetch_done > request) {
                    effective_latency = std::max<uint64_t>(
                        1, prefetch_done - request);
                }
            }
            uint64_t mem_issue = mem_fu->allocate(request);
            uint64_t mem_completion = mem_issue + effective_latency;
            gates[1] = std::max(gates[1], mem_completion);
            if (op == Op::STORE) {
                // Bound the forwarding table by store-buffer
                // liveness: a later load issues no earlier than
                // decode + 1, so an entry whose write has performed
                // by the current decode cycle can never forward and
                // is swept before the table would otherwise grow.
                if (st->last_store.nearCapacity()) {
                    st->last_store.retain(
                        [&](trace::Addr, const StoreForward &s) {
                            return s.mem_completion > decode;
                        });
                }
                st->last_store.insert(v.addr(i),
                                      {ready, mem_completion});
            } else {
                // Releases are fences under WO.
                gates[3] = std::max(gates[3], mem_completion);
            }
            if (latency > 1)
                allocateMshr(mem_completion);

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
        if (flags & TraceView::kSync) {
            if (flags & TraceView::kAcquire)
                bd.sync += contribution;
            else
                bd.write += contribution;
        } else {
            ++r.instructions;
            uint64_t slot = std::min<uint64_t>(contribution, 1);
            bd.busy += slot;
            uint64_t gap = contribution - slot;
            switch (op) {
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
        if (free_window)
            st->slot_heap.push(completion);

        // -------- Roll rings ---------------------------------------
        completion_ring[i % W] = completion;
        retire_ring[i % W] = retire;
        decode_ring[i % width] = decode;
        prev_retire = retire;
        first_retire = false;
    }

    /** Finalize totals after the last step(). */
    void finish()
    {
        r.cycles = r.breakdown.total();
        r.avg_window_occupancy = r.cycles == 0
            ? 0.0
            : static_cast<double>(occupancy_sum) /
                static_cast<double>(r.cycles);
    }
};

} // namespace dsmem::core::detail

#endif // DSMEM_CORE_LANE_H
