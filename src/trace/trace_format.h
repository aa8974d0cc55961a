#ifndef DSMEM_TRACE_TRACE_FORMAT_H
#define DSMEM_TRACE_TRACE_FORMAT_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "trace/op.h"
#include "trace/instruction.h"

namespace dsmem::util {
class ByteSink;
class ByteSource;
}

// ------------------------------------------------------------------
// Internal header: the DSMT v2 per-instruction meta-byte packing,
// and prologue reader, shared by the stream codec (trace_io.cc) and
// the chunk-resident view (chunked_view.cc), which keeps the same
// bytes in memory. Not part of the public API.
// ------------------------------------------------------------------

namespace dsmem::trace::detail {

// v2 meta byte: op in the low nibble, num_srcs and taken above it.
// kNumOps (14) fits 4 bits and kMaxSrcs (3) fits 2; static_asserts in
// packMeta keep the packing honest if either ever grows.
inline constexpr uint8_t kMetaOpMask = 0x0F;
inline constexpr unsigned kMetaSrcShift = 4;
inline constexpr uint8_t kMetaSrcMask = 0x03;
inline constexpr unsigned kMetaTakenShift = 6;

inline uint8_t
packMeta(Op op, uint8_t num_srcs, bool taken)
{
    static_assert(kNumOps <= 16, "op no longer fits the v2 meta nibble");
    static_assert(kMaxSrcs <= 3, "num_srcs no longer fits 2 meta bits");
    return static_cast<uint8_t>(static_cast<uint8_t>(op) |
                                (num_srcs << kMetaSrcShift) |
                                (static_cast<uint8_t>(taken)
                                 << kMetaTakenShift));
}

/**
 * Read a DSMT v2 prologue (magic, version, name and record count),
 * leaving @p r at the meta section; returns the count. Throws
 * util::FormatError on a bad magic or version, an implausible name,
 * or a count the remaining bytes cannot hold — before anything is
 * sized by it.
 */
size_t readPrologue(util::ByteSource &r, std::string &name);

/**
 * Write a DSMT v2 prologue (magic, version, name, record count @p n):
 * every v2 writer's first bytes, ahead of the meta section.
 */
void writePrologue(util::ByteSink &sink, const std::string &name,
                   size_t n);

} // namespace dsmem::trace::detail

#endif // DSMEM_TRACE_TRACE_FORMAT_H
