#ifndef DSMEM_TESTS_FILE_BACKED_H
#define DSMEM_TESTS_FILE_BACKED_H

/**
 * @file
 * File-backed trace views for tests: a trace written as a bundle file
 * and loaded the way runner::TraceStore loads one, so its sections
 * stay in the file and every decode fetches them.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "runner/trace_store.h"
#include "sim/trace_bundle.h"
#include "trace/chunked_view.h"
#include "trace/trace_stats.h"
#include "util/byte_io.h"

namespace dsmem::testing {

/** A scratch path unique to this process and @p tag. */
inline std::string
scratchPath(const std::string &tag)
{
    return ::testing::TempDir() + "dsmem_" + tag + "_" +
        std::to_string(::getpid()) + ".dsmb";
}

/** Write @p t as a bundle file at @p path. */
inline void
writeBundleFile(const trace::Trace &t, const std::string &path)
{
    sim::TraceBundle tb;
    tb.trace = t;
    tb.stats = trace::computeStats(t);
    tb.verified = true;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    runner::saveBundle(tb, os);
    if (!os)
        throw std::runtime_error("cannot write " + path);
}

/**
 * The bundle of @p t as the store loads it from disk: file-backed,
 * counting fetches in @p stats. The scratch file is unlinked at once;
 * the view's descriptor keeps it readable.
 */
inline sim::ViewBundle
fileBackedBundle(const trace::Trace &t, const std::string &tag,
                 std::shared_ptr<trace::FetchStats> stats = nullptr)
{
    const std::string path = scratchPath(tag);
    writeBundleFile(t, path);
    std::shared_ptr<const util::ReadFile> file = util::ReadFile::open(path);
    std::remove(path.c_str());
    if (!file)
        throw std::runtime_error("cannot open " + path);
    return runner::loadBundleView(file, sim::StreamExec::On,
                                  std::move(stats));
}

} // namespace dsmem::testing

#endif // DSMEM_TESTS_FILE_BACKED_H
