#ifndef DSMEM_UTIL_PARSE_H
#define DSMEM_UTIL_PARSE_H

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace dsmem::util {

/**
 * Strict decimal parse of a command-line value into [@p lo, @p hi].
 * Only digits are accepted: a sign, leading whitespace, trailing junk
 * or overflow yield nullopt, where strtoul would skip the whitespace
 * and silently wrap "-1" to its maximum. Header-only, like the rest
 * of util/.
 */
inline std::optional<uint64_t>
parseUnsigned(std::string_view text, uint64_t lo = 0,
              uint64_t hi = UINT64_MAX)
{
    uint64_t n = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, n, 10);
    if (text.empty() || ec != std::errc() || ptr != end || n < lo ||
        n > hi)
        return std::nullopt;
    return n;
}

} // namespace dsmem::util

#endif // DSMEM_UTIL_PARSE_H
