#include "sim/trace_bundle.h"

#include <chrono>

#include "mp/engine.h"
#include "util/failpoint.h"

namespace dsmem::sim {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

} // namespace

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

const ViewBundle &
TraceCache::getView(AppId id, const memsys::MemoryConfig &mem,
                    bool small, TraceOrigin *origin, TraceTiming *timing)
{
    Key key{id, mem, small};

    std::unique_lock<std::mutex> lock(mu_);
    Entry &entry = cache_[key]; // Map nodes are address-stable.
    for (;;) {
        if (entry.bundle) {
            if (origin)
                *origin = TraceOrigin::MEMORY;
            if (timing)
                *timing = {};
            return *entry.bundle;
        }
        if (!entry.busy)
            break;
        cv_.wait(lock);
    }

    // We own production for this key. Drop the lock so other keys
    // proceed in parallel; busy keeps same-key callers parked.
    entry.busy = true;
    lock.unlock();

    TraceOrigin from = TraceOrigin::GENERATED;
    TraceTiming took;
    std::optional<ViewBundle> vbundle;
    try {
        if (store_) {
            Clock::time_point t0 = Clock::now();
            vbundle = store_->loadView(id, mem, small);
            if (vbundle)
                took.load_ms = msSince(t0);
        }
        if (vbundle) {
            from = TraceOrigin::DISK;
        } else {
            Clock::time_point t0 = Clock::now();
            TraceBundle bundle = generateTrace(id, mem, small);
            took.gen_ms = msSince(t0);
            if (store_)
                store_->store(id, mem, small, bundle);
            vbundle = makeViewBundle(bundle, stream_exec_);
        }
    } catch (...) {
        // Hand production back before propagating, or every same-key
        // caller parked on busy would wait forever.
        lock.lock();
        entry.busy = false;
        cv_.notify_all();
        throw;
    }

    lock.lock();
    entry.bundle = std::make_unique<ViewBundle>(std::move(*vbundle));
    entry.busy = false;
    cv_.notify_all();
    if (origin)
        *origin = from;
    if (timing)
        *timing = took;
    return *entry.bundle;
}

} // namespace dsmem::sim
