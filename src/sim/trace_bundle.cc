#include "sim/trace_bundle.h"

#include "mp/engine.h"
#include "util/failpoint.h"

namespace dsmem::sim {

ViewBundle
makeViewBundle(const TraceBundle &bundle, StreamExec mode)
{
    ViewBundle vb;
    vb.view = trace::TraceView::build(bundle.trace);
    vb.stats = bundle.stats;
    vb.cache0 = bundle.cache0;
    vb.thread0 = bundle.thread0;
    vb.mp_cycles = bundle.mp_cycles;
    vb.verified = bundle.verified;
    vb.dram = bundle.dram;
    if (shouldStream(vb.view->size(), mode)) {
        vb.chunked = std::make_shared<trace::ChunkedView>(*vb.view);
        vb.view.reset();
    }
    return vb;
}

TraceBundle
generateTrace(AppId id, const memsys::MemoryConfig &mem, bool small)
{
    util::failpoint("bundle.generate");

    mp::EngineConfig config;
    config.mem = mem;
    mp::Engine engine(config);

    std::unique_ptr<apps::Application> app = makeApp(id, small);
    apps::runApplication(engine, *app);

    TraceBundle bundle;
    bundle.verified = app->verify(engine);
    bundle.cache0 = engine.memory().stats(config.traced_proc);
    bundle.thread0 = engine.threadStats(config.traced_proc);
    bundle.mp_cycles = engine.completionCycle(config.traced_proc);
    bundle.dram = engine.memory().dramSummary();
    bundle.trace = engine.takeTrace();
    bundle.stats = trace::computeStats(bundle.trace);
    return bundle;
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
