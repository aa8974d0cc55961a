#ifndef DSMEM_CORE_SOL_SWEEP_H
#define DSMEM_CORE_SOL_SWEEP_H

#include <vector>

#include "core/dynamic_processor.h"
#include "core/sim_context.h"

// ------------------------------------------------------------------
// Internal entry points of the two DS sweep executors behind
// runDynamicSweep (dynamic_processor.cc). The struct-of-lanes
// implementation template lives in sol_sweep_impl.h and is
// instantiated once, in sol_executor_simd.cc, on the configure-time
// vector batch type (AVX2 behind -mavx2, NEON on AArch64);
// runDynamicSweep must not call runSolSweepSimd unless
// solSimdRuntimeOk(). The tiled pass runs any config mix on any host.
// ------------------------------------------------------------------

namespace dsmem::core::detail {

/**
 * Tiled per-lane pass: each lane steps a block of instructions
 * (Lane::step) before the next lane starts it. Any config mix, any
 * host; what DynamicProcessor::run and every sweep the SoL cannot
 * take run on.
 */
std::vector<DynamicResult> runTiledSweep(
    const TraceSource &src, const std::vector<DynamicConfig> &configs,
    SimContext &ctx);

/**
 * Struct-of-lanes sweep, configure-time SIMD batch type. The whole
 * translation unit is compiled with the vector ISA enabled — callers
 * must check solSimdRuntimeOk() first. Throws std::invalid_argument
 * unless solSweepSupported(@p configs).
 */
std::vector<DynamicResult> runSolSweepSimd(
    const TraceSource &src, const std::vector<DynamicConfig> &configs,
    SimContext &ctx);

/** True when this build has the vector SoL TU and the running CPU
 *  supports its ISA (false in a build without AVX2 or NEON). Defined
 *  in the plain-flags TU so the check itself never executes vector
 *  code. */
bool solSimdRuntimeOk();

} // namespace dsmem::core::detail

#endif // DSMEM_CORE_SOL_SWEEP_H
