#ifndef DSMEM_MP_THREAD_CONTEXT_H
#define DSMEM_MP_THREAD_CONTEXT_H

#include <cassert>
#include <cmath>
#include <coroutine>
#include <cstdint>

#include "mp/arena.h"
#include "mp/dsl.h"
#include "mp/sync.h"
#include "trace/trace.h"
#include "trace/trace_buffer.h"

namespace dsmem::mp {

class Engine;

/** Per-thread reference counters (Tables 1 and 2 are built from these). */
struct ThreadStats {
    uint64_t instructions = 0; ///< Non-sync trace entries (busy cycles).
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t read_misses = 0;
    uint64_t write_misses = 0;
    uint64_t branches = 0;
    uint64_t locks = 0;
    uint64_t unlocks = 0;
    uint64_t barriers = 0;
    uint64_t wait_events = 0;
    uint64_t set_events = 0;
    uint64_t sync_wait_cycles = 0;     ///< Contention/imbalance stalls.
    uint64_t sync_transfer_cycles = 0; ///< Sync-variable access latency.
};

/**
 * The execution context of one simulated thread: the dataflow DSL the
 * applications are written in.
 *
 * Arithmetic, logic, and branch operations execute immediately — they
 * compute the real result, append a trace instruction (on the traced
 * processor), and advance the thread's local clock by one cycle
 * (every functional unit is single-cycle, Section 3.1). Memory and
 * synchronization operations return awaitables; co_awaiting them
 * yields to the Engine, which performs the access at the correct
 * point in global simulated time (in-order issue, blocking reads,
 * buffered writes under release consistency — Section 3.2).
 *
 * Phase-1 generation retires tens of millions of these DSL calls, so
 * the single-cycle operations are defined inline: one emit helper
 * bumps the clock and instruction count, and only the traced
 * processor (1 of 16) ever constructs the trace record.
 */
class ThreadContext
{
    friend class Engine;

  public:
    ThreadContext(Engine *engine, uint32_t proc);

    ThreadContext(const ThreadContext &) = delete;
    ThreadContext &operator=(const ThreadContext &) = delete;

    uint32_t procId() const { return proc_; }
    uint32_t numProcs() const;
    uint64_t cycle() const { return cycle_; }
    const ThreadStats &threadStats() const { return stats_; }
    Arena &arena();

    // ------------------------------------------------------------------
    // Immediates (no instruction, no dependence edge).
    // ------------------------------------------------------------------
    Val imm(int64_t v) const { return Val::imm(v); }
    Val fimm(double v) const { return Val::fimm(v); }

    // ------------------------------------------------------------------
    // Integer ALU (one IALU/SHIFT instruction each).
    // ------------------------------------------------------------------
    Val add(Val a, Val b)
    {
        int64_t r = static_cast<int64_t>(static_cast<uint64_t>(a.i) +
                                         static_cast<uint64_t>(b.i));
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val sub(Val a, Val b)
    {
        int64_t r = static_cast<int64_t>(static_cast<uint64_t>(a.i) -
                                         static_cast<uint64_t>(b.i));
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val mul(Val a, Val b)
    {
        int64_t r = static_cast<int64_t>(static_cast<uint64_t>(a.i) *
                                         static_cast<uint64_t>(b.i));
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    /// Integer divide; divide-by-zero yields 0.
    Val divi(Val a, Val b)
    {
        int64_t r = (b.i == 0) ? 0 : a.i / b.i;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    /// Integer remainder; mod-by-zero yields 0.
    Val rem(Val a, Val b)
    {
        int64_t r = (b.i == 0) ? 0 : a.i % b.i;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val band(Val a, Val b)
    {
        int64_t r = a.i & b.i;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val bor(Val a, Val b)
    {
        int64_t r = a.i | b.i;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val bxor(Val a, Val b)
    {
        int64_t r = a.i ^ b.i;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val shl(Val a, Val b)
    {
        uint64_t shift = static_cast<uint64_t>(b.i) & 63;
        int64_t r = static_cast<int64_t>(static_cast<uint64_t>(a.i)
                                         << shift);
        return {r, static_cast<double>(r), emit2(trace::Op::SHIFT, a, b)};
    }

    Val shr(Val a, Val b)
    {
        uint64_t shift = static_cast<uint64_t>(b.i) & 63;
        int64_t r = a.i >> shift;
        return {r, static_cast<double>(r), emit2(trace::Op::SHIFT, a, b)};
    }

    Val lt(Val a, Val b)
    {
        int64_t r = a.i < b.i ? 1 : 0;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val le(Val a, Val b)
    {
        int64_t r = a.i <= b.i ? 1 : 0;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val gt(Val a, Val b)
    {
        int64_t r = a.i > b.i ? 1 : 0;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val ge(Val a, Val b)
    {
        int64_t r = a.i >= b.i ? 1 : 0;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val eq(Val a, Val b)
    {
        int64_t r = a.i == b.i ? 1 : 0;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val ne(Val a, Val b)
    {
        int64_t r = a.i != b.i ? 1 : 0;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val imin(Val a, Val b)
    {
        int64_t r = a.i < b.i ? a.i : b.i;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    Val imax(Val a, Val b)
    {
        int64_t r = a.i > b.i ? a.i : b.i;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    /// Logical not (1 if zero).
    Val lnot(Val a)
    {
        int64_t r = (a.i == 0) ? 1 : 0;
        return {r, static_cast<double>(r), emit1(trace::Op::IALU, a)};
    }

    /// Logical and (0/1 result).
    Val land(Val a, Val b)
    {
        int64_t r = (a.i != 0 && b.i != 0) ? 1 : 0;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    /// Logical or (0/1 result).
    Val lor(Val a, Val b)
    {
        int64_t r = (a.i != 0 || b.i != 0) ? 1 : 0;
        return {r, static_cast<double>(r), emit2(trace::Op::IALU, a, b)};
    }

    // ------------------------------------------------------------------
    // Floating point (FADD/FMUL/FDIV/FCVT units).
    // ------------------------------------------------------------------
    Val fadd(Val a, Val b)
    {
        double r = a.f + b.f;
        return {Val::safeToInt(r), r, emit2(trace::Op::FADD, a, b)};
    }

    Val fsub(Val a, Val b)
    {
        double r = a.f - b.f;
        return {Val::safeToInt(r), r, emit2(trace::Op::FADD, a, b)};
    }

    Val fmul(Val a, Val b)
    {
        double r = a.f * b.f;
        return {Val::safeToInt(r), r, emit2(trace::Op::FMUL, a, b)};
    }

    /// Divide-by-zero yields 0.
    Val fdivv(Val a, Val b)
    {
        double r = b.f == 0.0 ? 0.0 : a.f / b.f;
        return {Val::safeToInt(r), r, emit2(trace::Op::FDIV, a, b)};
    }

    Val fneg(Val a)
    {
        double r = -a.f;
        return {Val::safeToInt(r), r, emit1(trace::Op::FADD, a)};
    }

    Val fabsv(Val a)
    {
        double r = std::fabs(a.f);
        return {Val::safeToInt(r), r, emit1(trace::Op::FADD, a)};
    }

    /// Uses the divide unit; sqrt of negative is 0.
    Val fsqrt(Val a)
    {
        double r = a.f < 0.0 ? 0.0 : std::sqrt(a.f);
        return {Val::safeToInt(r), r, emit1(trace::Op::FDIV, a)};
    }

    Val fminv(Val a, Val b)
    {
        double r = a.f < b.f ? a.f : b.f;
        return {Val::safeToInt(r), r, emit2(trace::Op::FADD, a, b)};
    }

    Val fmaxv(Val a, Val b)
    {
        double r = a.f > b.f ? a.f : b.f;
        return {Val::safeToInt(r), r, emit2(trace::Op::FADD, a, b)};
    }

    /// FP compare; integer 0/1 result.
    Val flt(Val a, Val b)
    {
        int64_t r = a.f < b.f ? 1 : 0;
        return {r, static_cast<double>(r), emit2(trace::Op::FADD, a, b)};
    }

    Val fle(Val a, Val b)
    {
        int64_t r = a.f <= b.f ? 1 : 0;
        return {r, static_cast<double>(r), emit2(trace::Op::FADD, a, b)};
    }

    Val fgt(Val a, Val b)
    {
        int64_t r = a.f > b.f ? 1 : 0;
        return {r, static_cast<double>(r), emit2(trace::Op::FADD, a, b)};
    }

    Val fge(Val a, Val b)
    {
        int64_t r = a.f >= b.f ? 1 : 0;
        return {r, static_cast<double>(r), emit2(trace::Op::FADD, a, b)};
    }

    /// int -> double (FCVT).
    Val toFloat(Val a)
    {
        return {a.i, static_cast<double>(a.i), emit1(trace::Op::FCVT, a)};
    }

    /// double -> int, saturating (FCVT).
    Val toInt(Val a)
    {
        int64_t r = Val::safeToInt(a.f);
        return {r, static_cast<double>(r), emit1(trace::Op::FCVT, a)};
    }

    // ------------------------------------------------------------------
    // Control flow.
    // ------------------------------------------------------------------

    /**
     * Record a conditional branch at static @p site and return its
     * outcome so the application can actually branch on it:
     *
     *     while (ctx.branch(kLoopSite, ctx.lt(i, n))) { ... }
     */
    bool branch(uint32_t site, Val cond)
    {
        bool taken = cond.b();
        ++next_inst_;
        ++stats_.instructions;
        cycle_ += 1;
        if (rec_) [[unlikely]]
            rec_->append(trace::makeBranch(site, taken, cond.inst));
        ++stats_.branches;
        return taken;
    }

    // ------------------------------------------------------------------
    // Memory (awaitable; the Engine times them).
    // ------------------------------------------------------------------

    /**
     * Awaitable returned by memory and synchronization operations:
     * always suspends, handing the pending operation to the Engine,
     * which executes it at the correct point in global time and
     * resumes the coroutine with the result.
     */
    struct Awaiter {
        ThreadContext *ctx;

        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> handle) noexcept;
        Val await_resume() const noexcept { return ctx->pending_.result; }
    };

    /** Load the integer slot at @p addr (up to two address deps). */
    Awaiter loadInt(Addr addr, Val dep1 = Val{}, Val dep2 = Val{})
    {
        beginMemOp(PendingKind::LOAD, false, addr);
        pushDep(pending_, dep1);
        pushDep(pending_, dep2);
        return Awaiter{this};
    }

    /** Load the double slot at @p addr. */
    Awaiter loadFloat(Addr addr, Val dep1 = Val{}, Val dep2 = Val{})
    {
        beginMemOp(PendingKind::LOAD, true, addr);
        pushDep(pending_, dep1);
        pushDep(pending_, dep2);
        return Awaiter{this};
    }

    /** Store @p value's integer payload to @p addr. */
    Awaiter storeInt(Addr addr, Val value, Val dep1 = Val{},
                     Val dep2 = Val{})
    {
        beginMemOp(PendingKind::STORE, false, addr);
        pending_.data = value;
        pushDep(pending_, value);
        pushDep(pending_, dep1);
        pushDep(pending_, dep2);
        return Awaiter{this};
    }

    /** Store @p value's double payload to @p addr. */
    Awaiter storeFloat(Addr addr, Val value, Val dep1 = Val{},
                       Val dep2 = Val{})
    {
        beginMemOp(PendingKind::STORE, true, addr);
        pending_.data = value;
        pushDep(pending_, value);
        pushDep(pending_, dep1);
        pushDep(pending_, dep2);
        return Awaiter{this};
    }

    /**
     * Indexed-array sugar guaranteeing the address dependence matches
     * the address actually accessed: element @p idx.i of @p arr.
     */
    template <typename T>
    Awaiter loadIdx(const ArenaArray<T> &arr, Val idx)
    {
        Addr addr = arr.addr(static_cast<size_t>(idx.i));
        if constexpr (std::is_same_v<T, double>)
            return loadFloat(addr, idx);
        else
            return loadInt(addr, idx);
    }

    template <typename T>
    Awaiter storeIdx(const ArenaArray<T> &arr, Val idx, Val value)
    {
        Addr addr = arr.addr(static_cast<size_t>(idx.i));
        if constexpr (std::is_same_v<T, double>)
            return storeFloat(addr, value, idx);
        else
            return storeInt(addr, value, idx);
    }

    // ------------------------------------------------------------------
    // Synchronization (awaitable; ANL macro package primitives).
    // ------------------------------------------------------------------
    Awaiter lock(LockId lock);
    Awaiter unlock(LockId lock);
    Awaiter barrier(BarrierId barrier);
    Awaiter waitEvent(EventId event);
    Awaiter setEvent(EventId event);

  private:
    enum class PendingKind : uint8_t {
        NONE,
        LOAD,
        STORE,
        LOCK,
        UNLOCK,
        BARRIER,
        WAIT_EVENT,
        SET_EVENT,
    };

    struct PendingOp {
        PendingKind kind = PendingKind::NONE;
        bool is_float = false;
        Addr addr = 0;
        uint32_t sync_id = 0;
        Val data;                     ///< Store payload.
        trace::InstIndex deps[trace::kMaxSrcs] = {
            trace::kNoSrc, trace::kNoSrc, trace::kNoSrc};
        uint8_t num_deps = 0;
        Val result;                   ///< Load result for await_resume.
    };

    /**
     * Clock/stat/index bump plus trace append for a two-source
     * single-cycle instruction. Only the traced processor builds the
     * record.
     */
    trace::InstIndex emit2(trace::Op unit, Val a, Val b)
    {
        trace::InstIndex idx = next_inst_++;
        ++stats_.instructions;
        cycle_ += 1;
        if (rec_) [[unlikely]]
            rec_->append(trace::makeCompute(unit, a.inst, b.inst));
        return idx;
    }

    /** One-source variant of emit2. */
    trace::InstIndex emit1(trace::Op unit, Val a)
    {
        trace::InstIndex idx = next_inst_++;
        ++stats_.instructions;
        cycle_ += 1;
        if (rec_) [[unlikely]]
            rec_->append(trace::makeCompute(unit, a.inst));
        return idx;
    }

    /** Append a sync instruction (clock handled by Engine). */
    trace::InstIndex recordTimed(const trace::TraceInst &inst);

    /**
     * Stage the pending slot for a memory operation. Only the fields
     * the Engine reads are written (entries of deps[] beyond num_deps
     * are never consumed).
     */
    void beginMemOp(PendingKind kind, bool is_float, Addr addr)
    {
        pending_.kind = kind;
        pending_.is_float = is_float;
        pending_.addr = addr;
        pending_.num_deps = 0;
    }

    void pushDep(PendingOp &op, Val v)
    {
        if (v.inst == trace::kNoSrc)
            return;
        assert(op.num_deps < trace::kMaxSrcs);
        op.deps[op.num_deps++] = v.inst;
    }

    Engine *engine_;
    trace::TraceRecorder *rec_; ///< Capture sink; null when untraced.
    uint32_t proc_;
    uint64_t cycle_ = 0;
    trace::InstIndex next_inst_ = 0;
    PendingOp pending_;
    ThreadStats stats_;

    /**
     * Innermost coroutine handle currently suspended on a DSL
     * operation; lets the Engine resume directly inside a SubTask.
     */
    std::coroutine_handle<> resume_handle_;
};

} // namespace dsmem::mp

#endif // DSMEM_MP_THREAD_CONTEXT_H
