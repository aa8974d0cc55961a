// Struct-of-lanes sweep executor, SIMD instantiation. CMake compiles
// this TU — and only this TU — with the vector ISA flags and the
// matching DSMEM_SIMD_TU_* define (-mavx2 + DSMEM_SIMD_TU_AVX2 on
// x86-64 toolchains that support it; DSMEM_SIMD_TU_NEON on AArch64,
// where NEON is baseline), so util::simd::U64Batch exists here and
// nowhere else. Without either ISA the sweep is not compiled and
// runSolSweepSimd only throws; solSimdRuntimeOk() is false there, so
// runDynamicSweep never calls it.
//
// Callers must gate entry on detail::solSimdRuntimeOk(): with
// per-file ISA flags the compiler may use vector instructions
// anywhere in this TU. That also means the linker could in principle
// pick this TU's copy of a shared inline function (comdat folding)
// for other callers; the build keeps binaries host-local (built and
// run on the same machine), and this TU is listed last in the target
// sources so plain-flag copies win the fold in practice.

#include <stdexcept>

#include "core/sol_sweep.h"
#include "util/simd.h"

#if defined(DSMEM_SIMD_ISA_AVX2) || defined(DSMEM_SIMD_ISA_NEON)
#include "core/sol_sweep_impl.h"
#endif

namespace dsmem::core::detail {

std::vector<DynamicResult>
runSolSweepSimd(const TraceSource &src,
                const std::vector<DynamicConfig> &configs,
                SimContext &ctx)
{
#if defined(DSMEM_SIMD_ISA_AVX2) || defined(DSMEM_SIMD_ISA_NEON)
    if (!solSweepSupported(configs))
        throw std::invalid_argument(
            "configs not runnable on the struct-of-lanes path "
            "(see solSweepSupported)");
    return runSolSweepImpl<util::simd::U64Batch>(src, configs, ctx);
#else
    (void)src, (void)configs, (void)ctx;
    throw std::logic_error(
        "built without a vector ISA: no struct-of-lanes sweep");
#endif
}

} // namespace dsmem::core::detail
