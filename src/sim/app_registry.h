#ifndef DSMEM_SIM_APP_REGISTRY_H
#define DSMEM_SIM_APP_REGISTRY_H

#include <array>
#include <memory>
#include <string_view>

#include "apps/app.h"

namespace dsmem::sim {

/**
 * The five applications of the study (Section 3.3), paper order.
 * See docs/WRITING_APPLICATIONS.md for adding new entries.
 */
enum class AppId {
    MP3D,
    LU,
    PTHOR,
    LOCUS,
    OCEAN,
};

inline constexpr std::array<AppId, 5> kAllApps = {
    AppId::MP3D, AppId::LU, AppId::PTHOR, AppId::LOCUS, AppId::OCEAN,
};

std::string_view appName(AppId id);

/**
 * Instantiate an application with its default (paper-scaled)
 * configuration, or a reduced "small" configuration for fast tests.
 */
std::unique_ptr<apps::Application> makeApp(AppId id, bool small = false);

/**
 * Static estimate of what generating @p id's phase-1 trace costs, in
 * milliseconds at the default MemoryConfig (measured on a 4-vCPU
 * Xeon). It only orders phase-1 jobs, longest first, so the longest
 * generation never starts last; no result depends on it.
 */
uint32_t phase1CostMs(AppId id, bool small);

} // namespace dsmem::sim

#endif // DSMEM_SIM_APP_REGISTRY_H
