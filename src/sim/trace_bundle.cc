#include "sim/trace_bundle.h"

#include "mp/engine.h"
#include "util/failpoint.h"

namespace dsmem::sim {

namespace {

/**
 * Run the multiprocessor simulation for @p id, fill @p bundle's stats
 * fields (TraceBundle and ViewBundle name them alike), then hand the
 * engine to @p take, which moves the capture into the bundle's
 * trace shape.
 */
template <typename Bundle, typename Take>
void
runPhase1(AppId id, const memsys::MemoryConfig &mem, bool small,
          Bundle &bundle, Take &&take)
{
    util::failpoint("bundle.generate");

    mp::EngineConfig config;
    config.mem = mem;
    mp::Engine engine(config);

    std::unique_ptr<apps::Application> app = makeApp(id, small);
    apps::runApplication(engine, *app);

    bundle.verified = app->verify(engine);
    bundle.cache0 = engine.memory().stats(config.traced_proc);
    bundle.thread0 = engine.threadStats(config.traced_proc);
    bundle.mp_cycles = engine.completionCycle(config.traced_proc);
    bundle.dram = engine.memory().dramSummary();
    take(engine);
}

} // namespace

void
applyResidency(ViewBundle &vb, StreamExec mode)
{
    if (vb.chunked && !shouldStream(mode)) {
        vb.view = vb.chunked->flatten();
        vb.chunked.reset();
    }
}

TraceBundle
generateTrace(AppId id, const memsys::MemoryConfig &mem, bool small)
{
    TraceBundle bundle;
    runPhase1(id, mem, small, bundle, [&](mp::Engine &engine) {
        bundle.trace = engine.takeTrace();
        bundle.stats = trace::computeStats(bundle.trace);
    });
    return bundle;
}

ViewBundle
generateView(AppId id, const memsys::MemoryConfig &mem, bool small)
{
    ViewBundle vb;
    runPhase1(id, mem, small, vb, [&](mp::Engine &engine) {
        vb.chunked = engine.capture();
        vb.stats = engine.captureStats();
    });
    return vb;
}

std::string_view
traceOriginName(TraceOrigin origin)
{
    switch (origin) {
      case TraceOrigin::GENERATED:
        return "generated";
      case TraceOrigin::DISK:
        return "disk";
      case TraceOrigin::MEMORY:
        return "memory";
    }
    return "invalid";
}

} // namespace dsmem::sim
