#ifndef DSMEM_CORE_SOL_SWEEP_IMPL_H
#define DSMEM_CORE_SOL_SWEEP_IMPL_H

#include <algorithm>
#include <bit>
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
// type from util/simd.h and included by exactly two translation
// units: sol_executor.cc (scalar batch, default flags) and
// sol_executor_simd.cc (vector batch, ISA flags).
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
// What stays scalar per lane is exactly the state that is per-lane
// by construction: cycle allocators, the branch predictor, the
// store-forwarding table, and the store-buffer ring.
//
// Bit-identity with Lane::step is preserved two ways: the lockstep
// phases below are a line-for-line transcription of the step for the
// op kinds they handle (same evaluation order of every max), and any
// instruction with divergent control flow — the synchronization ops,
// whose acquire waits and fences thread through retirement — falls
// back to the real Lane::step per lane, via pull/push of the rolling
// scalars plus staging of the handful of ring entries the step reads
// from the transposed history. tests/test_executor.cc asserts
// equality against per-cell runs for every mode.
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

        // ---- Parallel arrays, padded to the batch width -----------
        constexpr size_t kb = Batch::kWidth;
        kpad = (k + kb - 1) / kb * kb;
        constexpr size_t kNumArrays = 33;
        std::vector<uint64_t> &buf = ctx.solScratch().buf;
        // +7 words so the partition base can be rounded up to a cache
        // line: kpad is a multiple of the batch width, so a 64-byte
        // base keeps every vector load/store below from splitting
        // lines.
        buf.assign(kNumArrays * kpad + 7, 0);
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
        bd_busy = arr(), bd_read = arr(), bd_write = arr();
        bd_pipe = arr(), bd_sync = arr();
        n_instr = arr(), n_branch = arr();
        n_mispred = arr(), n_rmiss = arr();
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

            // ------ Decode: fetch rate, ROB space, fetch stalls ----
            // Whole-batch: the fetch-rate bound reads the
            // lane-uniform decode row of instruction i-width; the
            // FIFO window bound gathers retire(i - W_j) from each
            // lane's own row, masked off while i < W_j (matching the
            // per-lane ring guard).
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
            }

            // ------ Operand readiness: ready = decode + 1, src maxima
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
            for (size_t b = 0; b < kpad; b += kb) {
                Batch rdy = add64(Batch::load(a_decode + b), one);
                Batch wv = Batch::load(wq + b);
                for (int s = 0; s < nsrc; ++s) {
                    Batch c =
                        andnot64(gt64(Batch::splat(sdist[s]), wv),
                                 Batch::load(srow[s] + b));
                    rdy = max64(rdy, c);
                }
                rdy.store(a_ready + b);
            }

            // ------ Schedule by kind (one dispatch for all lanes) --
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
                const trace::Addr addr = v.addr(i);
                for (size_t j = 0; j < k; ++j) {
                    Lane &ln = lanes[j];
                    ln.mem_fu->advanceWatermark(a_decode[j]);
                    uint64_t mem_issue = ln.mem_fu->allocate(a_req[j]);
                    uint64_t completion;
                    const StoreForward *info =
                        ln.st->last_store.find(addr);
                    if (info != nullptr &&
                        info->mem_completion > mem_issue) {
                        completion =
                            std::max(mem_issue, info->data_ready) + 1;
                    } else {
                        completion = mem_issue + latency;
                    }
                    a_comp[j] = completion;
                }
                for (size_t b = 0; b < kpad; b += kb) {
                    Batch c = Batch::load(a_comp + b);
                    max64(Batch::load(g0 + b), c).store(g0 + b);
                    if (latency > 1) {
                        add64(Batch::load(n_rmiss + b),
                              Batch::splat(1))
                            .store(n_rmiss + b);
                    }
                }
                break;
              }

              case Op::STORE: {
                // ROB completion: operands ready and a store-buffer
                // slot free. The memory issue happens after
                // retirement below.
                for (size_t j = 0; j < k; ++j) {
                    const Lane &ln = lanes[j];
                    uint64_t slot_free = 0;
                    if (scount[j] >= ln.sb_depth)
                        slot_free =
                            ln.sb_leave_ring[scount[j] % ln.sb_depth];
                    a_comp[j] = std::max(a_ready[j], slot_free);
                }
                break;
              }

              case Op::BRANCH: {
                const uint32_t site = v.branchSite(i);
                const bool taken = v.taken(i);
                for (size_t j = 0; j < k; ++j) {
                    Lane &ln = lanes[j];
                    RingSlotAllocator &bfu =
                        ln.fu[static_cast<size_t>(
                            trace::FuClass::BRANCH)];
                    bfu.advanceWatermark(a_decode[j]);
                    uint64_t completion = bfu.allocate(a_ready[j]) + 1;
                    a_comp[j] = completion;
                    bool correct = perfect_bp ||
                        ln.st->predictor.predict(site, taken);
                    if (!correct) {
                        ++n_mispred[j];
                        if (completion > fsu[j])
                            fsu[j] = completion;
                    }
                }
                for (size_t b = 0; b < kpad; b += kb) {
                    add64(Batch::load(n_branch + b), Batch::splat(1))
                        .store(n_branch + b);
                }
                break;
              }

              default: { // Compute
                const size_t cls = static_cast<size_t>(v.fu(i));
                for (size_t j = 0; j < k; ++j) {
                    Lane &ln = lanes[j];
                    ln.fu[cls].advanceWatermark(a_decode[j]);
                    a_comp[j] = ln.fu[cls].allocate(a_ready[j]) + 1;
                }
                break;
              }
            }

            // ------ In-order retirement ----------------------------
            // Also publishes this instruction's completion and retire
            // rows of the transposed history (both values are final
            // here; sync retire adjustments only happen in the
            // fallback).
            uint64_t *comp_row = comp_t + (i & rm) * kpad;
            uint64_t *ret_row = ret_t + (i & rm) * kpad;
            const uint64_t *retw_row =
                ret_t + ((i - width) & rm) * kpad;
            for (size_t b = 0; b < kpad; b += kb) {
                Batch c = Batch::load(a_comp + b);
                c.store(comp_row + b);
                Batch ret = max64(c, Batch::load(prevret + b));
                if (i >= width)
                    ret = max64(ret,
                                add64(Batch::load(retw_row + b), one));
                ret.store(a_retire + b);
                ret.store(ret_row + b);
            }

            // ------ Post-retire memory issue for stores ------------
            if (op == Op::STORE) {
                for (size_t b = 0; b < kpad; b += kb) {
                    max64(Batch::load(a_retire + b),
                          gateBatch(b, store_gate))
                        .store(a_req + b);
                }
                const trace::Addr addr = v.addr(i);
                for (size_t j = 0; j < k; ++j) {
                    Lane &ln = lanes[j];
                    ln.mem_fu->advanceWatermark(a_decode[j]);
                    uint64_t mem_issue = ln.mem_fu->allocate(a_req[j]);
                    uint64_t mem_completion = mem_issue + latency;
                    a_req[j] = mem_completion; // reuse as scratch
                    if (ln.st->last_store.nearCapacity()) {
                        const uint64_t dec = a_decode[j];
                        ln.st->last_store.retain(
                            [&](trace::Addr, const StoreForward &s) {
                                return s.mem_completion > dec;
                            });
                    }
                    ln.st->last_store.insert(
                        addr, {a_ready[j], mem_completion});
                    uint64_t leave = mem_completion;
                    if (scount[j] > 0) {
                        uint64_t prev_leave = ln.sb_leave_ring[
                            (scount[j] - 1) % ln.sb_depth];
                        leave = std::max(leave, prev_leave);
                    }
                    ln.sb_leave_ring[scount[j] % ln.sb_depth] = leave;
                    ++scount[j];
                }
                for (size_t b = 0; b < kpad; b += kb) {
                    max64(Batch::load(g1 + b), Batch::load(a_req + b))
                        .store(g1 + b);
                }
            }

            // ------ Cycle attribution + occupancy, batched ---------
            for (size_t b = 0; b < kpad; b += kb) {
                Batch ret = Batch::load(a_retire + b);
                Batch contrib = sub64(ret, Batch::load(prevret + b));
                Batch slot = minOne64(contrib);
                add64(Batch::load(bd_busy + b), slot)
                    .store(bd_busy + b);
                Batch gap = sub64(contrib, slot);
                add64(Batch::load(n_instr + b), Batch::splat(1))
                    .store(n_instr + b);
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
                Batch span = add64(
                    sub64(ret, Batch::load(a_decode + b)),
                    Batch::splat(1));
                add64(Batch::load(occ + b), span).store(occ + b);
            }

            // ------ Publish decode; retire becomes prev_retire -----
            for (size_t b = 0; b < kpad; b += kb)
                Batch::load(a_decode + b).store(dec_row + b);
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
    // ---- Fallback bridge: SoL arrays <-> Lane rolling scalars -----
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
        ln.r.instructions = n_instr[j];
        ln.r.branches = n_branch[j];
        ln.r.mispredicts = n_mispred[j];
        ln.r.read_misses = n_rmiss[j];
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
        bd_busy[j] = ln.r.breakdown.busy;
        bd_read[j] = ln.r.breakdown.read;
        bd_write[j] = ln.r.breakdown.write;
        bd_pipe[j] = ln.r.breakdown.pipeline;
        bd_sync[j] = ln.r.breakdown.sync;
        n_instr[j] = ln.r.instructions;
        n_branch[j] = ln.r.branches;
        n_mispred[j] = ln.r.mispredicts;
        n_rmiss[j] = ln.r.read_misses;
    }

    void fallbackStep(const trace::TileSpan &v, size_t i)
    {
        // The per-lane rings are not maintained during lockstep, so
        // stage exactly the entries step(v, i) reads from the
        // transposed history, and publish its ring writes back.
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
            comp_t[(i & rm) * kpad + j] = ln.completion_ring[i % ln.W];
            ret_t[(i & rm) * kpad + j] = ln.retire_ring[i % ln.W];
            dec_t[(i % width) * kpad + j] =
                ln.decode_ring[i % width];
        }
        first = false;
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
             *scount = nullptr;
    uint64_t *bd_busy = nullptr, *bd_read = nullptr,
             *bd_write = nullptr, *bd_pipe = nullptr,
             *bd_sync = nullptr;
    uint64_t *n_instr = nullptr, *n_branch = nullptr,
             *n_mispred = nullptr, *n_rmiss = nullptr;
    uint64_t *a_decode = nullptr, *a_ready = nullptr,
             *a_comp = nullptr, *a_retire = nullptr, *a_req = nullptr,
             *a_lsb = nullptr;
    uint64_t *wq = nullptr, *lidx = nullptr;

    // Transposed ring history (into ctx.solScratch().hist).
    uint64_t rm = 0;
    uint64_t *comp_t = nullptr, *ret_t = nullptr, *dec_t = nullptr;

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
