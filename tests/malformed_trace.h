#ifndef DSMEM_TESTS_MALFORMED_TRACE_H
#define DSMEM_TESTS_MALFORMED_TRACE_H

/**
 * @file
 * A hand-laid DSMT v2 trace whose every varint is one byte, so each
 * section sits at a fixed offset, and the corruptions of it that
 * every loader must refuse with util::FormatError. Each corruption
 * keeps the stream otherwise well formed, so a bundle around it can
 * be resealed with a correct checksum and the refusal must come from
 * the trace sections themselves.
 */

#include <string>
#include <utility>
#include <vector>

#include "trace/trace.h"

namespace dsmem::testing {

/**
 * LOAD of address 0xFFFFFFFF (zigzag delta 1), then five IALUs, each
 * reading its predecessor (source delta 1); every latency is 1 and
 * every aux 0. The name is empty.
 */
inline trace::Trace
laidOutTrace()
{
    trace::Trace t;
    t.append(trace::makeLoad(0xFFFFFFFFu));
    for (trace::InstIndex i = 1; i < 6; ++i)
        t.append(trace::makeCompute(trace::Op::IALU, i - 1));
    return t;
}

/** Offsets from the stream's first byte ("DSMT"): the prologue is
 *  magic, version, name length 0 and count 6. */
inline constexpr size_t kLaidMeta = 10;
inline constexpr size_t kLaidSrcs = kLaidMeta + 6; ///< Five deltas.
inline constexpr size_t kLaidAddr = kLaidSrcs + 5;
inline constexpr size_t kLaidLat = kLaidAddr + 6;
inline constexpr size_t kLaidAux = kLaidLat + 6;
inline constexpr size_t kLaidEnd = kLaidAux + 6;

/**
 * Every refused corruption of the laid-out stream that starts at
 * @p at in @p bytes, as (what, mutated bytes):
 *  - an overlong (two-byte) encoding of the first value of each of
 *    the four varint sections;
 *  - a five-byte varint of 2^32 in the aux section;
 *  - an aux section one byte short;
 *  - the last instruction claiming three sources, so the source
 *    deltas borrow the address bytes and the stream runs out before
 *    its aux section does.
 */
inline std::vector<std::pair<std::string, std::string>>
laidOutCorruptions(const std::string &bytes, size_t at)
{
    std::vector<std::pair<std::string, std::string>> out;
    const std::pair<const char *, size_t> sections[] = {
        {"srcs", kLaidSrcs}, {"addr", kLaidAddr},
        {"latency", kLaidLat}, {"aux", kLaidAux}};
    for (const auto &[name, off] : sections) {
        std::string m = bytes;
        const char b = m[at + off];
        m.replace(at + off, 1, std::string{static_cast<char>(b | 0x80), '\0'});
        out.emplace_back(std::string("overlong varint in ") + name, m);
    }
    {
        std::string m = bytes;
        m.replace(at + kLaidAux, 1, "\x80\x80\x80\x80\x10", 5);
        out.emplace_back("varint of 2^32 in aux", m);
    }
    {
        std::string m = bytes;
        m.erase(at + kLaidEnd - 1, 1);
        out.emplace_back("aux section ends early", m);
    }
    {
        std::string m = bytes;
        m[at + kLaidMeta + 5] = static_cast<char>(
            static_cast<uint8_t>(trace::Op::IALU) | (3u << 4));
        out.emplace_back("source count runs past the buffer", m);
    }
    return out;
}

} // namespace dsmem::testing

#endif // DSMEM_TESTS_MALFORMED_TRACE_H
