#ifndef DSMEM_SIM_STREAM_EXEC_H
#define DSMEM_SIM_STREAM_EXEC_H

#include <cstddef>
#include <string>

// ------------------------------------------------------------------
// Streaming-executor policy: when should a trace stay resident in its
// chunk-compressed form (trace::ChunkedView, decoded tile by tile
// into L2-resident SoA tiles during the sweep) instead of being
// materialized as a flat TraceView?
//
// RunnerOptions::stream_exec threads the policy into TraceStore,
// which makes the residency decision per bundle: before decoding the
// trace section on a disk load (loadBundleView), right after phase 1
// on generation (applyResidency). Campaigns run Auto: a trace
// streams only when its flat footprint would clearly spill the
// last-level cache — below that, the flat view is already
// cache-resident and streaming would only add decode work. On and Off
// exist for tests and benchmarks that pin one residency.
// ------------------------------------------------------------------

namespace dsmem::sim {

enum class StreamExec {
    Auto, ///< Stream when the flat view would spill the LLC.
    On,   ///< Always keep traces chunk-compressed; stream every sweep.
    Off,  ///< Always materialize the flat TraceView (pre-PR behavior).
};

/**
 * Parse "auto" / "on" / "off" (also accepts "1"/"true" and
 * "0"/"false" for the forced modes). Returns false and leaves @p out
 * untouched on anything else.
 */
bool parseStreamExec(const std::string &text, StreamExec *out);

/** "auto" / "on" / "off". */
const char *streamExecName(StreamExec mode);

/**
 * Flat-view instruction footprint, in bytes, above which Auto mode
 * streams: half the last-level data cache (a flat view larger than
 * that cannot stay resident across a sweep pass alongside the
 * executor's own state). Falls back to 64 MiB when the cache
 * hierarchy is undetectable.
 */
size_t streamThresholdBytes();

/**
 * Residency decision for a trace of @p instructions entries under
 * @p mode. The byte estimate uses TraceView::bytesPerInstr() — the
 * exact per-entry cost of the flat SoA columns.
 */
bool shouldStream(size_t instructions, StreamExec mode);

/** What streamOptions() reports. */
struct DecodeShape {
    int decode_threads = 0;
};

/**
 * Always 0 decode threads: a chunked sweep decodes its tiles inline
 * (core/tile_stream.h). Kept only because benchmark/e2e prints it;
 * the benchmark change of ROADMAP item 3 removes it. No library,
 * bench or test code calls it.
 */
inline DecodeShape
streamOptions()
{
    return {};
}

} // namespace dsmem::sim

#endif // DSMEM_SIM_STREAM_EXEC_H
