#ifndef DSMEM_TRACE_TRACE_IO_H
#define DSMEM_TRACE_TRACE_IO_H

#include <iosfwd>
#include <memory>
#include <string>

#include "trace/trace.h"
#include "trace/trace_view.h"
#include "util/byte_io.h"

namespace dsmem::trace {

/**
 * Binary trace serialization.
 *
 * Generating a trace runs the whole multiprocessor simulation;
 * saving it lets the processor-timing studies (and external tools)
 * re-time the same execution without re-running phase 1.
 *
 * Version 2 (current, written by saveTrace) is a structure-of-arrays
 * stream built for load speed and density:
 *
 *   magic    "DSMT"                        4 bytes
 *   version  u32                           currently 2
 *   nameLen  varint, name bytes
 *   count    varint n
 *   meta     n bytes: op | num_srcs << 4 | taken << 6
 *   srcs     per inst, num_srcs varints of (i - src[s]) mod 2^32
 *   addr     n varints, zigzag delta vs. the previous address
 *   latency  n varints, zigzag delta vs. the previous latency
 *   aux      n varints, raw
 *
 * Each section is one tight array, so a loader fills the matching
 * TraceView SoA column sequentially — loadTraceView() decodes a v2
 * stream straight into a view without materializing AoS records.
 * Integrity (checksums) is the containing bundle's concern
 * (runner::saveBundle); a bare DSMT stream carries none.
 *
 * Only version 2 is read: every loader throws util::FormatError on any
 * other version.
 */
inline constexpr uint32_t kTraceFormatVersion = 2;

/** Serialize @p t to @p sink in the current (v2) format. */
void saveTrace(const Trace &t, util::ByteSink &sink);

/** Serialize a view; the same bytes as saveTrace of its Trace. */
void saveTrace(const TraceView &v, util::ByteSink &sink);

class ChunkedView;

/**
 * Serialize a chunked view: its resident sections are the v2 body, so
 * this only concatenates them — the same bytes as saveTrace of the
 * flat view.
 */
void saveTrace(const ChunkedView &cv, util::ByteSink &sink);

/** Serialize @p t to @p os. Throws std::runtime_error on I/O error. */
void saveTrace(const Trace &t, std::ostream &os);

/** Serialize @p t to @p path. */
void saveTraceFile(const Trace &t, const std::string &path);

/**
 * Deserialize a trace. Throws std::runtime_error on bad
 * magic, unsupported version, truncation, or malformed instructions
 * (the result always passes Trace::validate()).
 */
Trace loadTrace(util::ByteSource &src);
Trace loadTrace(std::istream &is);

/** Deserialize a trace from @p path. */
Trace loadTraceFile(const std::string &path);

/**
 * Deserialize a stream directly into a TraceView, skipping the
 * intermediate AoS Trace — the phase-2-only load path. Performs the
 * same validation as loadTrace.
 */
std::shared_ptr<const TraceView> loadTraceView(util::ByteSource &src);
std::shared_ptr<const TraceView> loadTraceView(std::istream &is);

/**
 * Deserialize a stream straight into chunk-compressed resident form
 * (ChunkedView) without ever materializing the flat SoA — the
 * streaming-executor load path, whose peak footprint is the compressed
 * sections instead of size() * TraceView::bytesPerInstr(). Performs
 * the same validation (opcode range, SSA form, truncation) as
 * loadTrace.
 */
std::shared_ptr<const ChunkedView> loadTraceChunked(util::ByteSource &src);
std::shared_ptr<const ChunkedView> loadTraceChunked(std::istream &is);

} // namespace dsmem::trace

#endif // DSMEM_TRACE_TRACE_IO_H
