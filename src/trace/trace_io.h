#ifndef DSMEM_TRACE_TRACE_IO_H
#define DSMEM_TRACE_TRACE_IO_H

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

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
 * Each section is one tight array, and the sections are exactly what
 * a trace::ChunkedView keeps resident, so there is one decoder: every
 * loader validates the sections in one pass (loadTraceChunked) and
 * either keeps them as read, in one buffer, or leaves them in their
 * file and keeps only where each chunk's slices sit and their hashes;
 * the flat and AoS loaders then flatten that view. Every varint must be a
 * canonical LEB128 encoding (no redundant high zero group) of a value
 * that fits 32 bits, and the stream must end with the aux section.
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
 * Deserialize a trace: the lean chunked load, flattened, as AoS
 * records. Throws util::FormatError on bad magic, unsupported
 * version, truncation, or malformed instructions (the result always
 * passes Trace::validate()).
 */
Trace loadTrace(std::istream &is);

/** Deserialize a trace from @p path. */
Trace loadTraceFile(const std::string &path);

/**
 * Deserialize a stream into a flat TraceView: the lean chunked load,
 * then ChunkedView::flatten(). Same validation as loadTrace.
 */
std::shared_ptr<const TraceView> loadTraceView(std::istream &is);

/**
 * The lean load: deserialize the DSMT v2 stream held in @p bytes from
 * offset @p at to their end into chunk-compressed resident form
 * (ChunkedView), keeping the section bytes where they are — the flat
 * SoA is never materialized, so the footprint is the compressed
 * sections. One validating pass checks what every loader checks
 * (opcode range, SSA form, canonical 32-bit varints, truncation,
 * bytes past the last section); runner::loadBundleView hands it the
 * bundle file it has read. The "trace_io.load" failpoint site.
 */
std::shared_ptr<const ChunkedView>
loadTraceChunked(std::vector<uint8_t> bytes, size_t at);

/** loadTraceChunked over everything left in @p is, read into one
 *  exact-size buffer (util::ByteSource::readRest). */
std::shared_ptr<const ChunkedView> loadTraceChunked(std::istream &is);

struct FetchStats;

/**
 * The bounded-memory load: read the DSMT v2 stream at @p in's cursor,
 * whose offsets are those of @p file, in one sequential pass through
 * @p in's fixed block buffer. The pass runs the same validation as the
 * lean load and hashes every (chunk, section) slice; only the meta
 * section is held while it runs. The returned view is file-backed:
 * it keeps @p file, the chunk directory and the slice hashes, and
 * fetches each chunk's slices when a decode needs them, counting the
 * fetches in @p stats (may be null). @p in is left after the aux
 * section; what follows is the caller's to check. The "trace_io.load"
 * failpoint site.
 */
std::shared_ptr<const ChunkedView>
loadTraceChunked(util::ByteSource &in,
                 std::shared_ptr<const util::ReadFile> file,
                 std::shared_ptr<FetchStats> stats);

} // namespace dsmem::trace

#endif // DSMEM_TRACE_TRACE_IO_H
