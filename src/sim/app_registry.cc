#include "sim/app_registry.h"

#include <stdexcept>

#include "apps/locus.h"
#include "apps/lu.h"
#include "apps/mp3d.h"
#include "apps/ocean.h"
#include "apps/pthor.h"

namespace dsmem::sim {

std::string_view
appName(AppId id)
{
    switch (id) {
      case AppId::MP3D:
        return "MP3D";
      case AppId::LU:
        return "LU";
      case AppId::PTHOR:
        return "PTHOR";
      case AppId::LOCUS:
        return "LOCUS";
      case AppId::OCEAN:
        return "OCEAN";
    }
    return "invalid";
}

uint32_t
phase1CostMs(AppId id, bool small)
{
    // {small, default size}: best of 7 sim::generateView runs, the
    // store's cold path (phase 1 recording into the compressed
    // capture), one thread on a 4-vCPU Xeon, two rounds.
    struct Cost {
        uint32_t small_ms;
        uint32_t full_ms;
    };
    Cost c{0, 0};
    switch (id) {
      case AppId::MP3D:
        c = {2, 40};
        break;
      case AppId::LU:
        c = {4, 85};
        break;
      case AppId::PTHOR:
        c = {8, 78};
        break;
      case AppId::LOCUS:
        c = {2, 20};
        break;
      case AppId::OCEAN:
        c = {4, 88};
        break;
    }
    return small ? c.small_ms : c.full_ms;
}

std::unique_ptr<apps::Application>
makeApp(AppId id, bool small)
{
    switch (id) {
      case AppId::MP3D: {
        apps::Mp3dConfig config;
        if (small) {
            config.particles = 1024;
            config.timesteps = 2;
        }
        return std::make_unique<apps::Mp3d>(config);
      }
      case AppId::LU: {
        apps::LuConfig config;
        if (small)
            config.n = 48;
        return std::make_unique<apps::Lu>(config);
      }
      case AppId::PTHOR: {
        apps::PthorConfig config;
        if (small) {
            config.gates = 1536;
            config.clocks = 2;
        }
        return std::make_unique<apps::Pthor>(config);
      }
      case AppId::LOCUS: {
        apps::LocusConfig config;
        if (small) {
            config.wires = 128;
            config.iterations = 1;
        }
        return std::make_unique<apps::Locus>(config);
      }
      case AppId::OCEAN: {
        apps::OceanConfig config;
        if (small) {
            config.n = 34;
            config.timesteps = 1;
        }
        return std::make_unique<apps::Ocean>(config);
      }
    }
    throw std::invalid_argument("unknown AppId");
}

} // namespace dsmem::sim
