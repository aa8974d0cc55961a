#ifndef DSMEM_CORE_SOL_SWEEP_H
#define DSMEM_CORE_SOL_SWEEP_H

#include <vector>

#include "core/dynamic_processor.h"
#include "core/sim_context.h"

// ------------------------------------------------------------------
// Internal entry points of the struct-of-lanes sweep executor. The
// implementation template lives in sol_sweep_impl.h and is
// instantiated twice: sol_executor.cc compiles the scalar batch type
// with the project's default flags, sol_executor_simd.cc compiles the
// configure-time vector batch type (AVX2 behind -mavx2, NEON on
// AArch64). runDynamicSweep (dynamic_processor.cc) dispatches between
// them; it must not call runSolSweepSimd unless solSimdRuntimeOk().
// ------------------------------------------------------------------

namespace dsmem::core::detail {

/** Struct-of-lanes sweep, scalar batch type (always safe to call). */
std::vector<DynamicResult> runSolSweepScalar(
    const TraceSource &src, const std::vector<DynamicConfig> &configs,
    SimContext &ctx);

/**
 * Struct-of-lanes sweep, configure-time SIMD batch type. The whole
 * translation unit is compiled with the vector ISA enabled — callers
 * must check solSimdRuntimeOk() first on hosts that may lack it.
 */
std::vector<DynamicResult> runSolSweepSimd(
    const TraceSource &src, const std::vector<DynamicConfig> &configs,
    SimContext &ctx);

/** True when the running CPU supports the configure-time SIMD ISA
 *  (always true for the NEON and scalar builds). Defined in the
 *  plain-flags TU so the check itself never executes vector code. */
bool solSimdRuntimeOk();

} // namespace dsmem::core::detail

#endif // DSMEM_CORE_SOL_SWEEP_H
