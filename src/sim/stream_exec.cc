#include "sim/stream_exec.h"

#include "util/sysinfo.h"

namespace dsmem::sim {

bool
parseStreamExec(const std::string &text, StreamExec *out)
{
    if (text == "auto") {
        *out = StreamExec::Auto;
    } else if (text == "on" || text == "1" || text == "true") {
        *out = StreamExec::On;
    } else if (text == "off" || text == "0" || text == "false") {
        *out = StreamExec::Off;
    } else {
        return false;
    }
    return true;
}

const char *
streamExecName(StreamExec mode)
{
    switch (mode) {
    case StreamExec::On:
        return "on";
    case StreamExec::Off:
        return "off";
    case StreamExec::Auto:
        break;
    }
    return "auto";
}

size_t
streamThresholdBytes()
{
    uint64_t llc = util::hostCacheBytes(3);
    if (llc == 0)
        llc = util::hostCacheBytes(2);
    if (llc == 0)
        return size_t{64} << 20;
    return static_cast<size_t>(llc / 2);
}

bool
shouldStream(StreamExec mode)
{
    return mode != StreamExec::Off;
}

} // namespace dsmem::sim
