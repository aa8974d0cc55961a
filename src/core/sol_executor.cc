// Struct-of-lanes sweep executor: the support predicate and the ISA
// gate. This TU is compiled with the project's default flags only, so
// the gate itself never executes vector code; the sweep is
// instantiated in sol_executor_simd.cc.

#include "core/sol_sweep.h"

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
    return detail::solSimdRuntimeOk() ? solIsaName() : "scalar";
}

namespace detail {

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
#elif defined(DSMEM_SOL_HAVE_NEON)
    return true; // NEON is baseline on AArch64.
#else
    return false; // No vector TU: fused groups take the tiled pass.
#endif
}

} // namespace detail

} // namespace dsmem::core
