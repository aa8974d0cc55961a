#ifndef DSMEM_SIM_STREAM_EXEC_H
#define DSMEM_SIM_STREAM_EXEC_H

#include <cstddef>
#include <string>

// ------------------------------------------------------------------
// Trace residency policy: does a trace stay resident in its
// chunk-compressed form (trace::ChunkedView, decoded tile by tile
// into one L2-resident SoA tile during each sweep) or as a flat
// TraceView?
//
// RunnerOptions::stream_exec threads the policy into TraceStore,
// which applies it per bundle: on a disk load (loadBundleView) and
// right after phase 1 (applyResidency). Compressed is the residency:
// Auto and On keep every trace chunked, at ~4-8 B/instr against the
// flat view's 28, and every phase-2 model reads it in order. Only
// consumers that need random access flatten (ChunkedView::flatten,
// memoized): sampled runs, live-point warming, the trace transforms,
// and Off, which tests and benchmarks use to pin the flat residency.
// ------------------------------------------------------------------

namespace dsmem::sim {

enum class StreamExec {
    Auto, ///< The default: keep traces chunk-compressed.
    On,   ///< Keep traces chunk-compressed (the same as Auto).
    Off,  ///< Materialize the flat TraceView of every trace.
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
 * Half the last-level data cache (64 MiB when the cache hierarchy is
 * undetectable). No library code consults it, since every residency
 * but Off streams; it stays only because benchmark/e2e prints it.
 */
size_t streamThresholdBytes();

/** Residency decision under @p mode: true keeps a trace chunked. */
bool shouldStream(StreamExec mode);

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
