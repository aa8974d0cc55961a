// Struct-of-lanes sweep executor, scalar instantiation. This TU is
// compiled with the project's default flags only — no vector ISA can
// appear here, making runSolSweepScalar safe on any host and the
// reference for the forced-scalar CI leg (DSMEM_SIMD=scalar).

#include "core/sol_sweep.h"
#include "core/sol_sweep_impl.h"

namespace dsmem::core {

bool
solSweepSupported(const std::vector<DynamicConfig> &configs)
{
    if (configs.empty())
        return false;
    const DynamicConfig &c0 = configs.front();
    for (const DynamicConfig &c : configs) {
        // Uniform knobs the lockstep phases hoist out of the loop.
        // The consistency model is not one: each lane carries its
        // own gate masks.
        if (c.width != c0.width ||
            c.btb.perfect != c0.btb.perfect ||
            c.ignore_data_deps != c0.ignore_data_deps)
            return false;
        // Ablations with per-lane divergent control flow in the step.
        if (c.free_window || c.sc_speculation || c.mshrs != 0 ||
            c.collect_read_delay)
            return false;
    }
    return true;
}

const char *
solIsaName()
{
#if defined(DSMEM_SOL_HAVE_AVX2)
    return "avx2";
#elif defined(DSMEM_SOL_HAVE_NEON)
    return "neon";
#else
    return "scalar";
#endif
}

const char *
solActiveIsaName()
{
    return util::simd::forceScalar() || !detail::solSimdRuntimeOk()
        ? "scalar"
        : solIsaName();
}

namespace detail {

std::vector<DynamicResult>
runSolSweepScalar(const TraceSource &src,
                  const std::vector<DynamicConfig> &configs,
                  SimContext &ctx)
{
    return runSolSweepImpl<util::simd::U64x4Scalar>(src, configs, ctx);
}

bool
solSimdRuntimeOk()
{
#if defined(DSMEM_SOL_HAVE_AVX2)
    // The SIMD TU was compiled with -mavx2; entering it on a CPU
    // without AVX2 would fault, so gate on the CPU here (this TU has
    // no vector flags, so the check itself is always safe).
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
#else
    // NEON is baseline on AArch64; the scalar build has nothing to
    // gate.
    return true;
#endif
}

} // namespace detail

} // namespace dsmem::core
