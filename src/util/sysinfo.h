#ifndef DSMEM_UTIL_SYSINFO_H
#define DSMEM_UTIL_SYSINFO_H

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

// ------------------------------------------------------------------
// Host introspection shared by the benches (JSON headers, regime
// sizing) and sim::streamThresholdBytes (sim/stream_exec.h):
// CPU model string, cache sizes, core count, and the process's peak
// resident set. Header-only, like the rest of util/.
// ------------------------------------------------------------------

namespace dsmem::util {

/** "model name" line from /proc/cpuinfo; "unknown" elsewhere. */
inline std::string
hostCpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.compare(0, 10, "model name") != 0)
            continue;
        size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        size_t begin = line.find_first_not_of(" \t", colon + 1);
        if (begin == std::string::npos)
            break;
        return line.substr(begin);
    }
    return "unknown";
}

/**
 * Size in bytes of cpu0's level-@p level data/unified cache from
 * sysfs; 0 when undetectable (non-Linux, masked sysfs). Recorded in
 * bench JSON headers so a committed baseline's regime ratios can be
 * read against the machine's cache hierarchy, and used by the
 * streaming-executor policy to derive its residency threshold.
 */
inline uint64_t
hostCacheBytes(int level)
{
    for (int idx = 0; idx < 16; ++idx) {
        std::string base = "/sys/devices/system/cpu/cpu0/cache/index" +
            std::to_string(idx) + "/";
        int l = 0;
        if (!(std::ifstream(base + "level") >> l) || l != level)
            continue;
        std::string type;
        if (std::ifstream(base + "type") >> type &&
            type == "Instruction")
            continue;
        std::string size;
        if (!(std::ifstream(base + "size") >> size) || size.empty())
            continue;
        char *end = nullptr;
        uint64_t bytes = std::strtoull(size.c_str(), &end, 10);
        if (end == size.c_str())
            continue;
        if (*end == 'K')
            bytes <<= 10;
        else if (*end == 'M')
            bytes <<= 20;
        else if (*end == 'G')
            bytes <<= 30;
        return bytes;
    }
    return 0;
}

/**
 * CPUs this process may run on; at least 1. On Linux that is the
 * sched_getaffinity mask, so a process pinned by taskset or a cpuset
 * sizes its thread pools to its share rather than to the machine
 * (std::thread::hardware_concurrency ignores affinity); elsewhere the
 * hardware thread count.
 */
inline unsigned
hostCores()
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
#endif
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

/**
 * Peak resident set size of this process in bytes (getrusage
 * ru_maxrss); 0 where unavailable. A high-water mark: it never
 * decreases, so comparative measurements must come from separate
 * processes (as bench_hotloop --rss-probe and the service workers
 * do).
 */
inline uint64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<uint64_t>(ru.ru_maxrss); // bytes on macOS
#else
    return static_cast<uint64_t>(ru.ru_maxrss) << 10; // KiB on Linux
#endif
#else
    return 0;
#endif
}

} // namespace dsmem::util

#endif // DSMEM_UTIL_SYSINFO_H
