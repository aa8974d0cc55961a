#ifndef DSMEM_CORE_SOL_SWEEP_IMPL_H
#define DSMEM_CORE_SOL_SWEEP_IMPL_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <vector>

#include "core/dynamic_processor.h"
#include "core/lane.h"
#include "core/sim_context.h"
#include "core/tile_stream.h"
#include "trace/chunked_view.h"
#include "trace/trace_view.h"
#include "util/simd.h"

// ------------------------------------------------------------------
// Struct-of-lanes (SoL) sweep executor, templated on the u64 batch
// type from util/simd.h and included only by sol_executor_simd.cc
// (vector batch, ISA flags).
//
// The per-lane tiled sweep steps one lane over a block of
// instructions at a time, so every lane re-runs the whole
// per-instruction control flow — field loads, the op switch, the gate
// selection — privately. This executor inverts the loop nest: all K
// lanes advance in lockstep over one instruction, so the trace fields
// are loaded and the op dispatched once per instruction (K-fold
// amortization), and the rolling scalar state lives in K-wide
// parallel arrays where the admission/gate/dependence/attribution
// arithmetic runs on whole batches.
//
// Ring state is kept *transposed*: instead of K per-lane rings, one
// shared history buffer per ring kind holds the last R instructions'
// completion/retire/decode times row-major by instruction slot with
// the K lanes contiguous (R = bit_ceil(max window)). Rows written by
// instruction s are read by instruction i at a *lane-uniform* row
// index for source readiness (row s & R-1), the fetch-rate bound
// (row i mod width), and the in-order retirement bound (row
// (i-width) & R-1), so those phases are whole-batch loads; only the
// window-full bound (row (i-W_j) & R-1) needs a per-lane row, served
// by a batch gather. Since R >= W_j >= width, a row still holds the
// instruction each of those reads wants — the same overwrite
// argument the per-lane rings rely on — and every masked-off read
// (distance beyond the lane's window) contributes the same 0 the
// per-lane ring guard produces, so the values are bit-identical.
// Transposition also removes the scalar-store-then-vector-load
// forwarding stalls the per-lane rolls used to feed the next
// instruction's batch phases.
//
// The per-lane state that is not a ring lives in lane-indexed arrays
// too, where the lockstep phases reach it without going through
// Lane. Each FU class keeps a copy of every lane's allocator cursor
// (its bitmap window) in one such array, so the allocator's fast
// path (RingSlotAllocator::Cursor::claim) runs inline in the lane
// loop; a request it declines goes out of line through the lane's
// own allocator, and the copy is re-read after it. Each lane's next
// store-buffer slot-free time is kept current after every store, so
// a store's ROB phase is a batch max. Scalar per lane remain the
// claim itself and the store-buffer ring.
//
// Some state is not per-lane at all, so it is computed once per
// instruction for every lane. The instruction, branch and read-miss
// counts are one scalar each, and so are two larger pieces:
//  - Branch prediction. Every lane feeds its predictor the same
//    (site, taken) sequence, and prediction state is a pure function
//    of that history (BranchPredictor::Snapshot), so lanes with one
//    BTB geometry share one predictor: predict() runs once per branch
//    per distinct geometry and the outcome is broadcast.
//  - Store forwarding. Which store last wrote an address does not
//    depend on the lane, so one table per sweep maps each address to
//    a row of per-lane {data_ready, mem_completion}, probed once per
//    load or store. An address is pruned only when its entry is dead
//    for every lane; a dead entry has mem_completion <= decode <
//    every later mem_issue of that lane, so it could never forward,
//    and pruning it or not changes no result.
//
// Bit-identity with Lane::step is preserved two ways: the lockstep
// phases below are a line-for-line transcription of the step for the
// op kinds they handle (same evaluation order of every max), and any
// instruction with divergent control flow — the synchronization ops,
// whose acquire waits and fences thread through retirement — falls
// back to the real Lane::step per lane, via pull/push of the rolling
// scalars plus staging of the handful of ring entries the step reads
// from the transposed history (see fallbackStep).
// tests/test_executor.cc asserts equality against per-cell runs.
//
// The pass is packaged as SolSweepState — init() binds the lanes and
// carves the scratch arrays, runRange() advances every lane over one
// span of the trace, finish() harvests the results. runSolSweepImpl
// pulls the spans of a TraceSource off a TileStream and calls
// runRange once per span: one span for a flat view, one per decoded
// tile for a chunked one. The lockstep phases read the span
// only at the current index, and every piece of cross-instruction
// state lives in this object, so splitting the trace at arbitrary
// tile boundaries cannot change a single scheduling decision —
// chunked results are bit-identical to flat ones by construction.
//
// Only configs accepted by core::solSweepSupported may be run here:
// uniform width/prediction/dependence knobs, no free_window,
// sc_speculation, finite MSHRs, or read-delay collection. The
// consistency model may differ per lane: a model only chooses which
// completion maxima gate a load or store, and that choice is a
// per-lane mask over the four gate terms. Under those
// preconditions first_retire is the only cross-lane nonuniform
// control bit, and it is uniform too (true exactly at instruction 0,
// which is peeled through the fallback).
// ------------------------------------------------------------------

namespace dsmem::core::detail {

template <typename Batch>
class SolSweepState
{
  public:
    /** Bind @p configs to @p ctx lanes and carve the scratch arrays. */
    void init(const std::vector<DynamicConfig> &configs, SimContext &ctx)
    {
        k = configs.size();
        if (k == 0)
            return;

        lanes.resize(k);
        for (size_t j = 0; j < k; ++j) {
            validateConfig(configs[j]);
            lanes[j].bind(configs[j], ctx.lane(j));
        }

        // Uniform knobs (guaranteed by solSweepSupported).
        width = lanes[0].width;
        ignore_deps = lanes[0].ignore_data_deps;
        perfect_bp = lanes[0].perfect_bp;

        // One predictor per distinct BTB geometry: its first lane's.
        bp_group.resize(k);
        bp_rep.clear();
        for (size_t j = 0; j < k; ++j) {
            size_t g = 0;
            while (g < bp_rep.size() &&
                   !sameGeometry(configs[bp_rep[g]].btb,
                                 configs[j].btb))
                ++g;
            if (g == bp_rep.size())
                bp_rep.push_back(j);
            bp_group[j] = g;
        }

        // ---- Parallel arrays, padded to the batch width -----------
        constexpr size_t kb = Batch::kWidth;
        kpad = (k + kb - 1) / kb * kb;
        const size_t num_arrays = 31 + bp_rep.size();
        std::vector<uint64_t> &buf = ctx.solScratch().buf;
        // +7 words so the partition base can be rounded up to a cache
        // line: kpad is a multiple of the batch width, so a 64-byte
        // base keeps every vector load/store below from splitting
        // lines.
        buf.assign(num_arrays * kpad + 7, 0);
        uint64_t *next_arr = reinterpret_cast<uint64_t *>(
            (reinterpret_cast<uintptr_t>(buf.data()) + 63) &
            ~uintptr_t{63});
        auto arr = [&next_arr, this]() {
            uint64_t *q = next_arr;
            next_arr += kpad;
            return q;
        };
        // Rolling state (zero-initialized, matching a fresh bind()).
        g0 = arr(), g1 = arr(), g2 = arr(), g3 = arr();
        fsu = arr();     // fetch_stall_until
        prevret = arr(); // prev_retire
        occ = arr();     // occupancy_sum
        scount = arr();  // store_count
        sb_free = arr(); // next store's slot-free time (see slotFree)
        bd_busy = arr(), bd_read = arr(), bd_write = arr();
        bd_pipe = arr(), bd_sync = arr();
        n_mispred = arr();
        n_instr = n_branch = n_rmiss = 0;
        // Per-instruction temporaries.
        a_decode = arr(), a_ready = arr(), a_comp = arr();
        a_retire = arr(), a_req = arr(), a_lsb = arr();
        // Batch operands of the transposed-history reads.
        wq = arr();   // per-lane window size
        lidx = arr(); // lane index (gather offset within a row)
        for (size_t j = 0; j < kpad; ++j) {
            // Padding lanes get an unreachable window so every
            // history read masks to 0 there (their array slots hold
            // junk that nothing consumes, but keeping it masked keeps
            // it bounded).
            wq[j] = j < k ? lanes[j].W : uint64_t{1} << 62;
            lidx[j] = j;
        }

        // Per-lane consistency gate masks: word t of a lane is all
        // ones when its model's selector includes gate term t, zero
        // otherwise (padding lanes select nothing). The gate is then
        // max_t(g_t & m_t), so lanes of different models share one
        // lockstep pass. A term no lane selects is skipped, and one
        // every lane selects needs no mask, so a single-model family
        // pays nothing for the masking.
        auto bindGate = [&](GateMasks &gm, auto selector) {
            gm.any = 0;
            gm.all = kGateAll | kGateSync;
            for (unsigned t = 0; t < 4; ++t)
                gm.mask[t] = arr();
            for (size_t j = 0; j < kpad; ++j) {
                const unsigned sel = j < k ? selector(lanes[j]) : 0;
                if (j < k) {
                    gm.any |= sel;
                    gm.all &= sel;
                }
                for (unsigned t = 0; t < 4; ++t)
                    gm.mask[t][j] = (sel >> t) & 1 ? ~uint64_t{0} : 0;
            }
        };
        bindGate(load_gate, [](const Lane &l) { return l.load_sel; });
        bindGate(store_gate, [](const Lane &l) { return l.sel.store; });

        // Allocator cursors, class-major (class c, lane j at
        // c * kpad + j).
        fu_cur.resize(trace::kNumFuClasses * kpad);
        for (size_t j = 0; j < k; ++j)
            loadCursors(j);

        // Lane masks of the predictor groups.
        bp_mask.resize(bp_rep.size());
        for (size_t g = 0; g < bp_rep.size(); ++g) {
            bp_mask[g] = arr();
            for (size_t j = 0; j < k; ++j)
                bp_mask[g][j] = bp_group[j] == g ? ~uint64_t{0} : 0;
        }

        sb_ring.resize(k);
        sb_depth.resize(k);
        for (size_t j = 0; j < k; ++j) {
            sb_ring[j] = lanes[j].sb_leave_ring;
            sb_depth[j] = lanes[j].sb_depth;
        }

        fwd = &ctx.solScratch();
        fwd->fwd_index.clear();
        fwd->fwd_rows.clear();
        fwd->fwd_free.clear();

        // ---- Transposed ring history ------------------------------
        const uint32_t max_w = std::max_element(
            lanes.begin(), lanes.end(),
            [](const Lane &a, const Lane &b) { return a.W < b.W; })->W;
        const size_t R = std::bit_ceil(static_cast<size_t>(max_w));
        rm = R - 1;
        std::vector<uint64_t> &hist = ctx.solScratch().hist;
        hist.assign((2 * R + width) * kpad + 7, 0);
        comp_t = reinterpret_cast<uint64_t *>(
            (reinterpret_cast<uintptr_t>(hist.data()) + 63) &
            ~uintptr_t{63});
        ret_t = comp_t + R * kpad;
        dec_t = ret_t + R * kpad;

        // first_retire is uniform: true only before instruction 0.
        first = true;
    }

    /**
     * Advance every lane over the instructions of @p v. Spans must
     * arrive in trace order and contiguous, the first starting at
     * instruction 0 — which is peeled through the fallback there.
     */
    void runRange(const trace::TileSpan &v)
    {
        using trace::Op;
        using trace::TraceView;

        constexpr size_t kb = Batch::kWidth;
        const size_t hi = v.hi();
        size_t i = v.lo();
        if (i == 0 && hi > 0) {
            // Peel instruction 0 so first_retire is false in the
            // lockstep phases (its attribution term is retire + 1,
            // every later one retire - prev_retire).
            fallbackStep(v, 0);
            i = 1;
        }

        const Batch one = Batch::splat(1);
        const Batch rmv = Batch::splat(rm);
        const Batch kpv = Batch::splat(kpad);

        for (; i < hi; ++i) {
            // Prefetch the operand arrays a block ahead: a multi-GB
            // flat trace arrives cold from memory, and the lockstep
            // pass touches every array at the same index, so one line
            // per array per 8 instructions keeps the stream off the
            // critical path. Bounded by hi, so a span never
            // prefetches past its own columns.
            constexpr size_t kPrefetchDist = 64;
            if ((i & 7) == 0 && i + kPrefetchDist < hi)
                v.prefetch(i + kPrefetchDist);

            const uint8_t flags = v.flags(i);
            if (flags & TraceView::kSync) {
                // Divergent slow case: acquire waits and release
                // fences thread through retirement differently per
                // lane — run the real per-lane step.
                fallbackStep(v, i);
                continue;
            }

            const Op op = v.op(i);
            const uint32_t latency = v.latency(i);

            // Source completion rows are lane-uniform (row s & R-1);
            // a source beyond a lane's window contributes 0, exactly
            // like Lane::ringCompletion.
            const uint64_t *srow[3];
            uint64_t sdist[3];
            int nsrc = 0;
            if (!ignore_deps) {
                const trace::InstIndex *src = v.srcs(i);
                const int ns = v.numSrcs(i);
                for (int s = 0; s < ns; ++s) {
                    if (src[s] == trace::kNoSrc)
                        continue;
                    const size_t sidx = static_cast<size_t>(src[s]);
                    srow[nsrc] = comp_t + (sidx & rm) * kpad;
                    sdist[nsrc] = i - sidx;
                    ++nsrc;
                }
            }

            // ------ Decode, then operand readiness -----------------
            // Decode: the fetch-rate bound reads the lane-uniform
            // decode row of instruction i-width; the FIFO window
            // bound gathers retire(i - W_j) from each lane's own row,
            // masked off while i < W_j (matching the per-lane ring
            // guard). Readiness: decode + 1, then the source maxima.
            const Batch iv = Batch::splat(i);
            uint64_t *dec_row = dec_t + (i % width) * kpad;
            for (size_t b = 0; b < kpad; b += kb) {
                Batch d = Batch::load(fsu + b);
                if (i >= width)
                    d = max64(d, add64(Batch::load(dec_row + b), one));
                Batch wv = Batch::load(wq + b);
                Batch row = and64(sub64(iv, wv), rmv);
                Batch idx =
                    add64(mulLo32(row, kpv), Batch::load(lidx + b));
                Batch wfull = add64(gather64(ret_t, idx), one);
                d = max64(d, andnot64(gt64(wv, iv), wfull));
                d.store(a_decode + b);
                Batch rdy = add64(d, one);
                for (int s = 0; s < nsrc; ++s) {
                    Batch c =
                        andnot64(gt64(Batch::splat(sdist[s]), wv),
                                 Batch::load(srow[s] + b));
                    rdy = max64(rdy, c);
                }
                rdy.store(a_ready + b);
            }

            // ------ Schedule by kind (one dispatch for all lanes) --
            // Leaves each lane's ROB completion in a_comp; a compute
            // op or branch leaves its issue cycle there instead, and
            // the retirement pass adds the cycle of execution.
            bool plus_one = false;
            switch (op) {
              case Op::LOAD: {
                // Gate + load_store_bound mask + request, batched;
                // the mask must read the gates before this load
                // updates g0.
                for (size_t b = 0; b < kpad; b += kb) {
                    Batch gate = gateBatch(b, load_gate);
                    Batch rdy = Batch::load(a_ready + b);
                    Batch m = gt64(gate, rdy);
                    Batch G0 = Batch::load(g0 + b);
                    Batch G1 = Batch::load(g1 + b);
                    Batch G2 = Batch::load(g2 + b);
                    m = andnot64(gt64(G0, G1), m); // && g1 >= g0
                    m = andnot64(gt64(G2, G1), m); // && g1 >= g2
                    m.store(a_lsb + b);
                    max64(rdy, gate).store(a_req + b);
                }
                allocateFu(kMem, a_req, a_comp); // mem_issue
                // One probe of the forwarding table for every lane: a
                // pending store to the address forwards its value.
                const uint64_t *fdr = fwdRow(v.addr(i));
                const Batch lat = Batch::splat(latency);
                for (size_t b = 0; b < kpad; b += kb) {
                    Batch issue = Batch::load(a_comp + b);
                    Batch c = add64(issue, lat);
                    if (fdr != nullptr) {
                        Batch fwdc = add64(
                            max64(issue, Batch::load(fdr + b)), one);
                        c = blend64(
                            gt64(Batch::load(fdr + kpad + b), issue),
                            fwdc, c);
                    }
                    c.store(a_comp + b);
                    max64(Batch::load(g0 + b), c).store(g0 + b);
                }
                if (latency > 1)
                    ++n_rmiss;
                break;
              }

              case Op::STORE: {
                // ROB completion: operands ready and a store-buffer
                // slot free. The memory issue happens after
                // retirement below.
                for (size_t b = 0; b < kpad; b += kb) {
                    max64(Batch::load(a_ready + b),
                          Batch::load(sb_free + b))
                        .store(a_comp + b);
                }
                break;
              }

              case Op::BRANCH: {
                allocateFu(kBranch, a_ready, a_comp);
                plus_one = true;
                ++n_branch;
                if (perfect_bp)
                    break;
                const uint32_t site = v.branchSite(i);
                const bool taken = v.taken(i);
                for (size_t g = 0; g < bp_rep.size(); ++g) {
                    if (lanes[bp_rep[g]].st->predictor.predict(site,
                                                               taken))
                        continue;
                    // Wrong-path fetch: the group's lanes fetch the
                    // correct path the cycle after the branch
                    // resolves.
                    const uint64_t *m = bp_mask[g];
                    for (size_t b = 0; b < kpad; b += kb) {
                        Batch mb = Batch::load(m + b);
                        Batch c = and64(
                            add64(Batch::load(a_comp + b), one), mb);
                        max64(Batch::load(fsu + b), c).store(fsu + b);
                        // The mask is all ones: subtracting adds one.
                        sub64(Batch::load(n_mispred + b), mb)
                            .store(n_mispred + b);
                    }
                }
                break;
              }

              default: // Compute
                allocateFu(static_cast<size_t>(v.fu(i)), a_ready,
                           a_comp);
                plus_one = true;
                break;
            }

            // ------ Retirement, attribution, occupancy -------------
            // Also publishes this instruction's completion, retire
            // and decode rows of the transposed history (all final
            // here; sync retire adjustments only happen in the
            // fallback).
            uint64_t *comp_row = comp_t + (i & rm) * kpad;
            uint64_t *ret_row = ret_t + (i & rm) * kpad;
            const uint64_t *retw_row =
                ret_t + ((i - width) & rm) * kpad;
            for (size_t b = 0; b < kpad; b += kb) {
                Batch c = Batch::load(a_comp + b);
                if (plus_one)
                    c = add64(c, one);
                c.store(comp_row + b);
                Batch prev = Batch::load(prevret + b);
                Batch ret = max64(c, prev);
                if (i >= width)
                    ret = max64(ret,
                                add64(Batch::load(retw_row + b), one));
                ret.store(a_retire + b);
                ret.store(ret_row + b);

                Batch contrib = sub64(ret, prev);
                Batch slot = minOne64(contrib);
                add64(Batch::load(bd_busy + b), slot)
                    .store(bd_busy + b);
                Batch gap = sub64(contrib, slot);
                if (op == Op::LOAD) {
                    Batch m = Batch::load(a_lsb + b);
                    add64(Batch::load(bd_write + b), and64(gap, m))
                        .store(bd_write + b);
                    add64(Batch::load(bd_read + b), andnot64(m, gap))
                        .store(bd_read + b);
                } else if (op == Op::STORE) {
                    add64(Batch::load(bd_write + b), gap)
                        .store(bd_write + b);
                } else {
                    add64(Batch::load(bd_pipe + b), gap)
                        .store(bd_pipe + b);
                }
                Batch dec = Batch::load(a_decode + b);
                add64(Batch::load(occ + b),
                      add64(sub64(ret, dec), one))
                    .store(occ + b);
                dec.store(dec_row + b);
            }
            ++n_instr;

            // ------ Post-retire memory issue for stores ------------
            if (op == Op::STORE) {
                for (size_t b = 0; b < kpad; b += kb) {
                    max64(Batch::load(a_retire + b),
                          gateBatch(b, store_gate))
                        .store(a_req + b);
                }
                allocateFu(kMem, a_req, a_req); // mem_issue
                // The store's row of the forwarding table, and its
                // write's completion.
                uint64_t *fdr = fwdStoreRow(v.addr(i));
                const Batch lat = Batch::splat(latency);
                for (size_t b = 0; b < kpad; b += kb) {
                    Batch mc = add64(Batch::load(a_req + b), lat);
                    mc.store(a_req + b);
                    Batch::load(a_ready + b).store(fdr + b);
                    mc.store(fdr + kpad + b);
                    max64(Batch::load(g1 + b), mc).store(g1 + b);
                }
                // Store buffer slot occupied from ROB retirement
                // until the write performs; FIFO deallocation.
                for (size_t j = 0; j < k; ++j) {
                    uint64_t *ring = sb_ring[j];
                    const uint64_t depth = sb_depth[j];
                    uint64_t leave = a_req[j];
                    if (scount[j] > 0)
                        leave = std::max(leave,
                                         ring[(scount[j] - 1) % depth]);
                    ring[scount[j] % depth] = leave;
                    ++scount[j];
                    sb_free[j] = slotFree(j);
                }
            }

            // ------ Retire becomes prev_retire ---------------------
            std::swap(prevret, a_retire);
        }
    }

    /** Harvest per-lane results after the last runRange(). */
    std::vector<DynamicResult> finish()
    {
        std::vector<DynamicResult> out;
        out.reserve(k);
        for (size_t j = 0; j < k; ++j) {
            pull(j);
            lanes[j].finish();
            out.push_back(std::move(lanes[j].r));
        }
        return out;
    }

  private:
    static constexpr size_t kMem =
        static_cast<size_t>(trace::FuClass::MEM);
    static constexpr size_t kBranch =
        static_cast<size_t>(trace::FuClass::BRANCH);

    static bool sameGeometry(const BtbConfig &a, const BtbConfig &b)
    {
        return a.entries == b.entries &&
            a.associativity == b.associativity;
    }

    // ---- Fallback bridge: SoL arrays <-> Lane rolling scalars -----
    // The instruction, branch and read-miss counts are the same for
    // every lane (every lane sees every instruction), so they are one
    // scalar each: pull() hands them to the lane and the fallback
    // takes them back once, from lane 0.
    void pull(size_t j)
    {
        Lane &ln = lanes[j];
        ln.gates[0] = g0[j];
        ln.gates[1] = g1[j];
        ln.gates[2] = g2[j];
        ln.gates[3] = g3[j];
        ln.fetch_stall_until = fsu[j];
        ln.prev_retire = prevret[j];
        ln.occupancy_sum = occ[j];
        ln.store_count = scount[j];
        ln.first_retire = first;
        ln.r.breakdown.busy = bd_busy[j];
        ln.r.breakdown.read = bd_read[j];
        ln.r.breakdown.write = bd_write[j];
        ln.r.breakdown.pipeline = bd_pipe[j];
        ln.r.breakdown.sync = bd_sync[j];
        ln.r.instructions = n_instr;
        ln.r.branches = n_branch;
        ln.r.mispredicts = n_mispred[j];
        ln.r.read_misses = n_rmiss;
    }

    void push(size_t j)
    {
        const Lane &ln = lanes[j];
        g0[j] = ln.gates[0];
        g1[j] = ln.gates[1];
        g2[j] = ln.gates[2];
        g3[j] = ln.gates[3];
        fsu[j] = ln.fetch_stall_until;
        prevret[j] = ln.prev_retire;
        occ[j] = ln.occupancy_sum;
        scount[j] = ln.store_count;
        sb_free[j] = slotFree(j);
        bd_busy[j] = ln.r.breakdown.busy;
        bd_read[j] = ln.r.breakdown.read;
        bd_write[j] = ln.r.breakdown.write;
        bd_pipe[j] = ln.r.breakdown.pipeline;
        bd_sync[j] = ln.r.breakdown.sync;
        n_mispred[j] = ln.r.mispredicts;
    }

    /** When lane @p j's next store finds a free store-buffer slot. */
    uint64_t slotFree(size_t j) const
    {
        if (scount[j] < sb_depth[j])
            return 0;
        return sb_ring[j][scount[j] % sb_depth[j]];
    }

    void fallbackStep(const trace::TileSpan &v, size_t i)
    {
        // The per-lane rings are not maintained during lockstep, so
        // stage exactly the entries step(v, i) reads from the
        // transposed history, and publish its writes back: its rings,
        // rolling scalars and allocator windows. Only instruction 0
        // can be a load, store or branch here (the sync ops that
        // otherwise take this path use neither the predictor nor the
        // forwarding table), and there every lane's predictor and
        // table are as bind() left them, so each lane's own step
        // predicts and forwards exactly as the shared state would; a
        // store's new entry is published to the sweep's table.
        using trace::Op;
        const Op op = v.op(i);
        assert(i == 0 ||
               (op != Op::LOAD && op != Op::STORE && op != Op::BRANCH));
        const trace::InstIndex *src = v.srcs(i);
        const int ns = ignore_deps ? 0 : v.numSrcs(i);
        for (size_t j = 0; j < k; ++j) {
            Lane &ln = lanes[j];
            if (i >= width) {
                ln.decode_ring[i % width] =
                    dec_t[(i % width) * kpad + j];
                ln.retire_ring[(i - width) % ln.W] =
                    ret_t[((i - width) & rm) * kpad + j];
            }
            if (i >= ln.W)
                ln.retire_ring[i % ln.W] =
                    ret_t[((i - ln.W) & rm) * kpad + j];
            for (int s = 0; s < ns; ++s) {
                if (src[s] == trace::kNoSrc)
                    continue;
                const size_t sidx = static_cast<size_t>(src[s]);
                if (i - sidx > ln.W)
                    continue;
                ln.completion_ring[sidx % ln.W] =
                    comp_t[(sidx & rm) * kpad + j];
            }
            pull(j);
            ln.step(v, i);
            push(j);
            loadCursors(j);
            comp_t[(i & rm) * kpad + j] = ln.completion_ring[i % ln.W];
            ret_t[(i & rm) * kpad + j] = ln.retire_ring[i % ln.W];
            a_decode[j] = ln.decode_ring[i % width];
            dec_t[(i % width) * kpad + j] = a_decode[j];
        }
        n_instr = lanes[0].r.instructions;
        n_branch = lanes[0].r.branches;
        n_rmiss = lanes[0].r.read_misses;
        if (op == Op::STORE) {
            const trace::Addr addr = v.addr(i);
            uint64_t *row = fwdStoreRow(addr);
            for (size_t j = 0; j < k; ++j) {
                const StoreForward *s =
                    lanes[j].st->last_store.find(addr);
                row[j] = s->data_ready;
                row[kpad + j] = s->mem_completion;
            }
        }
        first = false;
    }

    // ---- FU allocation --------------------------------------------

    /** Re-read lane @p j's cursors (after its allocators ran). */
    void loadCursors(size_t j)
    {
        for (size_t c = 0; c < trace::kNumFuClasses; ++c)
            fu_cur[c * kpad + j] = lanes[j].fu[c].cursor();
    }

    /**
     * Allocate req[j] on FU class @p c for every lane, the cycle into
     * out[j] (@p out may be @p req). A claimed request is its own
     * cycle, so out starts as a batch copy of req and only a request
     * the cursor declines is rewritten, by allocateFuSlow().
     */
    void allocateFu(size_t c, const uint64_t *req, uint64_t *out)
    {
        constexpr size_t kb = Batch::kWidth;
        if (out != req) {
            for (size_t b = 0; b < kpad; b += kb)
                Batch::load(req + b).store(out + b);
        }
        const RingSlotAllocator::Cursor *cur =
            fu_cur.data() + c * kpad;
        for (size_t j = 0; j < k; ++j) {
            if (!cur[j].claim(req[j]))
                out[j] = allocateFuSlow(c, j, req[j]);
        }
    }

    /**
     * Allocate @p t on lane @p j's FU class @p c when its cursor
     * declined: the lane's own allocator runs the rest, its
     * watermark the lane's current decode, and may move the window.
     */
    [[gnu::noinline]] uint64_t allocateFuSlow(size_t c, size_t j,
                                              uint64_t t)
    {
        RingSlotAllocator &fu = lanes[j].fu[c];
        fu.advanceWatermark(a_decode[j]);
        const uint64_t cycle = fu.allocateSlow(t);
        fu_cur[c * kpad + j] = fu.cursor();
        return cycle;
    }

    // ---- Store forwarding -----------------------------------------

    /** The forwarding row of @p addr (data_ready lanes, then
     *  mem_completion lanes), or nullptr when no store wrote it. */
    uint64_t *fwdRow(trace::Addr addr)
    {
        const uint32_t *r = fwd->fwd_index.find(addr);
        return r == nullptr ? nullptr
                            : fwd->fwd_rows.data() + *r * 2 * kpad;
    }

    /**
     * The row a store to @p addr overwrites, created when absent.
     * Before the table would grow, addresses dead for every lane at
     * its current decode are pruned: a later load of lane j issues
     * after decode j, so an entry performed by then never forwards.
     */
    uint64_t *fwdStoreRow(trace::Addr addr)
    {
        SimContext::SolScratch &f = *fwd;
        if (f.fwd_index.nearCapacity()) {
            auto live = [&](trace::Addr, uint32_t r) {
                const uint64_t *mc =
                    f.fwd_rows.data() + r * 2 * kpad + kpad;
                for (size_t j = 0; j < k; ++j)
                    if (mc[j] > a_decode[j])
                        return true;
                return false;
            };
            f.fwd_index.forEach([&](trace::Addr a, uint32_t r) {
                if (!live(a, r))
                    f.fwd_free.push_back(r);
            });
            f.fwd_index.retain(live);
        }
        if (const uint32_t *r = f.fwd_index.find(addr))
            return f.fwd_rows.data() + *r * 2 * kpad;
        uint32_t r;
        if (!f.fwd_free.empty()) {
            r = f.fwd_free.back();
            f.fwd_free.pop_back();
        } else {
            r = static_cast<uint32_t>(f.fwd_rows.size() / (2 * kpad));
            f.fwd_rows.resize(f.fwd_rows.size() + 2 * kpad);
        }
        f.fwd_index.insert(addr, r);
        return f.fwd_rows.data() + r * 2 * kpad;
    }

    /** Per-lane masks of one consistency gate (see init). */
    struct GateMasks {
        uint64_t *mask[4] = {}; ///< Word j: lane j selects term t.
        unsigned any = 0;       ///< Terms some lane selects.
        unsigned all = 0;       ///< Terms every lane selects.
    };

    /** One whole batch of per-lane gates: max over t of g_t & m_t. */
    Batch gateBatch(size_t b, const GateMasks &gm)
    {
        Batch gate = Batch::splat(0);
        // Spelled out per term (not a loop over a pointer table) so
        // the hot path keeps direct loads at -O2.
        auto term = [&](unsigned t, const uint64_t *g) {
            if (!((gm.any >> t) & 1))
                return; // 0 for every lane.
            Batch v = Batch::load(g + b);
            if (!((gm.all >> t) & 1))
                v = and64(v, Batch::load(gm.mask[t] + b));
            gate = max64(gate, v);
        };
        term(0, g0);
        term(1, g1);
        term(2, g2);
        term(3, g3);
        return gate;
    }

    size_t k = 0;
    size_t kpad = 0;
    std::vector<Lane> lanes;

    // Uniform knobs.
    uint32_t width = 1;
    bool ignore_deps = false;
    bool perfect_bp = false;
    GateMasks load_gate, store_gate;

    // Scratch array partitions (into ctx.solScratch().buf).
    uint64_t *g0 = nullptr, *g1 = nullptr, *g2 = nullptr,
             *g3 = nullptr;
    uint64_t *fsu = nullptr, *prevret = nullptr, *occ = nullptr,
             *scount = nullptr, *sb_free = nullptr;
    uint64_t *bd_busy = nullptr, *bd_read = nullptr,
             *bd_write = nullptr, *bd_pipe = nullptr,
             *bd_sync = nullptr;
    uint64_t *n_mispred = nullptr;
    uint64_t *a_decode = nullptr, *a_ready = nullptr,
             *a_comp = nullptr, *a_retire = nullptr, *a_req = nullptr,
             *a_lsb = nullptr;
    uint64_t *wq = nullptr, *lidx = nullptr;

    /// Allocator cursors, [class * kpad + lane].
    std::vector<RingSlotAllocator::Cursor> fu_cur;

    // Lane-uniform counts (see pull).
    uint64_t n_instr = 0, n_branch = 0, n_rmiss = 0;

    // Transposed ring history (into ctx.solScratch().hist).
    uint64_t rm = 0;
    uint64_t *comp_t = nullptr, *ret_t = nullptr, *dec_t = nullptr;

    // Predictor groups: lanes of one BTB geometry share the predictor
    // of the group's first lane.
    std::vector<size_t> bp_group;    ///< Lane -> group.
    std::vector<size_t> bp_rep;      ///< Group -> its first lane.
    std::vector<uint64_t *> bp_mask; ///< Group -> lane mask array.

    // Store-buffer rings of the lanes (borrowed from Lane).
    std::vector<uint64_t *> sb_ring;
    std::vector<uint64_t> sb_depth;

    SimContext::SolScratch *fwd = nullptr; ///< The forwarding table.

    bool first = true;
};

/** One lockstep pass over the source, span by span. */
template <typename Batch>
std::vector<DynamicResult>
runSolSweepImpl(const TraceSource &src,
                const std::vector<DynamicConfig> &configs,
                SimContext &ctx)
{
    SolSweepState<Batch> state;
    state.init(configs, ctx);
    TileStream stream(src, ctx);
    trace::TileSpan span;
    while (stream.next(span))
        state.runRange(span);
    return state.finish();
}

} // namespace dsmem::core::detail

#endif // DSMEM_CORE_SOL_SWEEP_IMPL_H
