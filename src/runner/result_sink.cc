#include "runner/result_sink.h"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

namespace dsmem::runner {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonDouble(double v)
{
    std::ostringstream os;
    os.precision(6);
    os << std::fixed << v;
    return os.str();
}

void
ResultSink::setContext(std::string bench, unsigned jobs,
                       std::string trace_dir)
{
    bench_ = std::move(bench);
    jobs_ = jobs;
    trace_dir_ = std::move(trace_dir);
}

void
ResultSink::addTrace(TraceRecord record)
{
    traces_.push_back(std::move(record));
}

void
ResultSink::addRun(RunRecord record)
{
    runs_.push_back(std::move(record));
}

void
ResultSink::addError(ErrorRecord record)
{
    errors_.push_back(std::move(record));
}

void
ResultSink::clear()
{
    traces_.clear();
    runs_.clear();
    errors_.clear();
    store_ = {};
}

void
ResultSink::writeJson(std::ostream &os) const
{
    os << "{\n";
    os << "  \"schema_version\": 1,\n";
    os << "  \"bench\": \"" << jsonEscape(bench_) << "\",\n";
    os << "  \"jobs\": " << jobs_ << ",\n";
    os << "  \"trace_dir\": \"" << jsonEscape(trace_dir_) << "\",\n";

    os << "  \"traces\": [";
    for (size_t i = 0; i < traces_.size(); ++i) {
        const TraceRecord &t = traces_[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"app\": \"" << jsonEscape(t.app) << "\""
           << ", \"hit_latency\": " << t.hit_latency
           << ", \"miss_latency\": " << t.miss_latency
           << ", \"protocol\": \"" << jsonEscape(t.protocol) << "\""
           << ", \"banks\": " << t.banks
           << ", \"small\": " << (t.small ? "true" : "false")
           << ", \"origin\": \"" << jsonEscape(t.origin) << "\""
           << ", \"file\": \"" << jsonEscape(t.file) << "\""
           << ", \"instructions\": " << t.instructions
           << ", \"wall_ms\": " << jsonDouble(t.wall_ms)
           << ", \"gen_ms\": " << jsonDouble(t.gen_ms)
           << ", \"load_ms\": " << jsonDouble(t.load_ms);
        // Contention members appear only for traces generated with
        // the corresponding model on: default exports stay
        // byte-identical to builds without them.
        if (t.has_contention)
            os << ", \"contention_cycles\": " << t.contention_cycles;
        if (t.has_dram) {
            const memsys::DramAccessStats &d = t.dram_stats;
            os << ", \"dram\": {\"banks\": " << t.dram_banks
               << ", \"row_bytes\": " << t.dram_row_bytes
               << ", \"sched\": \"" << jsonEscape(t.dram_sched) << "\""
               << ", \"requests\": " << d.requests
               << ", \"row_hits\": " << d.row_hits
               << ", \"row_misses\": " << d.row_misses
               << ", \"row_conflicts\": " << d.row_conflicts
               << ", \"queue_cycles\": " << d.queue_cycles
               << ", \"bus_wait_cycles\": " << d.bus_wait_cycles
               << "}";
        }
        os << "}";
    }
    os << (traces_.empty() ? "]" : "\n  ]") << ",\n";

    os << "  \"runs\": [";
    for (size_t i = 0; i < runs_.size(); ++i) {
        const RunRecord &r = runs_[i];
        const core::Breakdown &bd = r.result.breakdown;
        os << (i ? ",\n    " : "\n    ");
        os << "{\"app\": \"" << jsonEscape(r.app) << "\""
           << ", \"spec\": \"" << jsonEscape(r.spec) << "\""
           << ", \"trace_origin\": \"" << jsonEscape(r.trace_origin)
           << "\""
           << ", \"cycles\": " << r.result.cycles
           << ", \"busy\": " << bd.busy
           << ", \"sync\": " << bd.sync
           << ", \"read\": " << bd.read
           << ", \"write\": " << bd.write
           << ", \"pipeline\": " << bd.pipeline
           << ", \"instructions\": " << r.result.instructions
           << ", \"branches\": " << r.result.branches
           << ", \"mispredicts\": " << r.result.mispredicts
           << ", \"read_misses\": " << r.result.read_misses
           << ", \"hidden_read\": " << jsonDouble(r.hidden_read)
           << ", \"wall_ms\": " << jsonDouble(r.wall_ms);
        // Present only for rows a sampling plan estimated: the
        // sampling-off export stays byte-identical.
        if (r.has_sampling)
            os << ", \"sampling\": {\"windows\": " << r.sample_windows
               << ", \"measured\": " << r.sample_measured
               << ", \"cpi_mean\": " << jsonDouble(r.cpi_mean)
               << ", \"ci95\": " << jsonDouble(r.ci95) << "}";
        os << "}";
    }
    os << (runs_.empty() ? "]" : "\n  ]");

    if (store_.chunk_fetches != 0 || store_.fetch_verify_failures != 0)
        os << ",\n  \"store\": {\"chunk_fetches\": "
           << store_.chunk_fetches
           << ", \"fetch_bytes\": " << store_.fetch_bytes
           << ", \"fetch_verify_failures\": "
           << store_.fetch_verify_failures << "}";

    // Only a campaign that recorded errors emits the member at all:
    // the fault-free export stays byte-identical across versions.
    if (!errors_.empty()) {
        os << ",\n  \"errors\": [";
        for (size_t i = 0; i < errors_.size(); ++i) {
            const ErrorRecord &e = errors_[i];
            os << (i ? ",\n    " : "\n    ");
            os << "{\"app\": \"" << jsonEscape(e.app) << "\""
               << ", \"spec\": \"" << jsonEscape(e.spec) << "\""
               << ", \"site\": \"" << jsonEscape(e.site) << "\""
               << ", \"message\": \"" << jsonEscape(e.message) << "\""
               << ", \"attempts\": " << e.attempts
               << ", \"fatal\": " << (e.fatal ? "true" : "false")
               << "}";
        }
        os << "\n  ]";
    }
    os << "\n";
    os << "}\n";
}

bool
ResultSink::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    writeJson(os);
    return static_cast<bool>(os);
}

} // namespace dsmem::runner
