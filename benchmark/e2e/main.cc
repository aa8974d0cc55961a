/**
 * @file
 * dsmem_e2e — one workload of the end-to-end campaign benchmark.
 *
 *   dsmem_e2e --workload W [--seed N] [--seconds S | --iters N]
 *             [--setup-reps N] [--trace --spans FILE] [--smoke]
 *             [--golden-fig3 HEX] [--golden-stream HEX] [--record]
 *   dsmem_e2e --host
 *
 * Untraced, it sets the workload up --setup-reps times (each ending in
 * one untimed warm-up iteration), then iterates in a closed loop for
 * --seconds and reports the end-to-end metrics. With --trace it
 * re-drives every layer instead (layers.cc) and writes the spans as
 * Chrome trace events. Every cell of every iteration is checked: the
 * first warm-up against the golden digest (or, for a stream_sweep seed
 * without one, the flat-path oracle), every later iteration against
 * that first one cell by cell. The last stdout line is one JSON
 * object; benchmark/run.py reads it.
 *
 * Exit codes: 0 ran (the JSON says whether it was correct), 1 error,
 * 2 bad usage or a DSMEM_* variable that would change the measured
 * path.
 */

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include <unistd.h>

#include "core/dynamic_processor.h"
#include "e2e.h"
#include "sim/stream_exec.h"
#include "util/sysinfo.h"

namespace dsmem::e2e {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

SpanLog::Scope::Scope(SpanLog &log, const char *name, const char *cat,
                      std::string detail)
    : log_(log), name_(name), cat_(cat), detail_(std::move(detail)),
      start_(now())
{
    if (log_.on) {
        id_ = log_.next_id_++;
        parent_ = log_.open_.empty() ? 0 : log_.open_.back();
        log_.open_.push_back(id_);
    }
}

double
SpanLog::Scope::stop()
{
    if (!open_)
        return length_;
    open_ = false;
    const double end = now();
    length_ = end - start_;
    if (id_ != 0) {
        auto it = std::find(log_.open_.begin(), log_.open_.end(), id_);
        if (it != log_.open_.end())
            log_.open_.erase(it);
        log_.spans_.push_back(Span{name_, cat_, std::move(detail_), start_,
                                   end, log_.pass, id_, parent_});
    }
    return length_;
}

namespace {

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Full precision; JSON has no NaN, so an undefined ratio is null. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    for (const Span &s : spans_)
        t0 = std::min(t0, s.start);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const long pid = static_cast<long>(::getpid());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(s.name)
            << ",\"cat\":" << jsonString(s.cat) << ",\"ph\":\"X\",\"ts\":"
            << jsonNumber((s.start - t0) * 1e6)
            << ",\"dur\":" << jsonNumber((s.end - s.start) * 1e6)
            << ",\"pid\":" << pid << ",\"tid\":1,\"args\":{\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"pass\":" << s.pass;
        if (!s.detail.empty())
            out << ",\"detail\":" << jsonString(s.detail);
        out << "}}";
    }
    out << "\n]}\n";
    out.flush();
    return static_cast<bool>(out);
}

namespace {

namespace fs = std::filesystem;

/** A mkdtemp directory under $TMPDIR, removed with everything in it. */
class TempDir
{
  public:
    TempDir()
    {
        const char *root = std::getenv("TMPDIR");
        std::string tmpl = std::string(root && *root ? root : "/tmp") +
            "/dsmem-e2e-XXXXXX";
        if (!::mkdtemp(tmpl.data()))
            throw std::runtime_error("mkdtemp " + tmpl + ": " +
                                     std::strerror(errno));
        path_ = tmpl;
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * This process image's peak RSS: VmHWM from /proc/self/status.
 * getrusage's ru_maxrss is not used because it keeps the high-water
 * mark of the process that exec'd this one (run.py's Python).
 */
uint64_t
peakRssBytes()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10) << 10;
    return util::peakRssBytes();
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(
        stderr,
        "dsmem_e2e: %s\n"
        "usage: dsmem_e2e --workload "
        "fig3_cold|fig3_warm|fig3_svc|stream_sweep\n"
        "                 [--seed N] [--seconds S | --iters N] "
        "[--setup-reps N]\n"
        "                 [--trace --spans FILE] [--smoke] [--record]\n"
        "                 [--golden-fig3 HEX] [--golden-stream HEX]\n"
        "       dsmem_e2e --host\n",
        msg);
    std::exit(2);
}

uint64_t
parseCount(const char *v, uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0' || errno != 0 || n > max || v[0] == '-')
        usage("bad number");
    return n;
}

Options
parseArgs(int argc, char **argv, bool *host)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opts.workload = value();
        } else if (arg == "--seed") {
            opts.seed = parseCount(value(), UINT64_MAX);
        } else if (arg == "--seconds") {
            const char *v = value();
            char *end = nullptr;
            opts.seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(opts.seconds > 0.0) ||
                opts.seconds > 3600.0)
                usage("bad --seconds");
        } else if (arg == "--iters") {
            opts.iters = static_cast<unsigned>(parseCount(value(), 100000));
        } else if (arg == "--setup-reps") {
            opts.setup_reps = static_cast<unsigned>(parseCount(value(), 100));
            if (opts.setup_reps == 0)
                usage("--setup-reps must be at least 1");
        } else if (arg == "--trace") {
            opts.trace = true;
        } else if (arg == "--spans") {
            opts.spans_path = value();
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--record") {
            opts.record = true;
        } else if (arg == "--golden-fig3") {
            opts.golden_fig3 = value();
        } else if (arg == "--golden-stream") {
            opts.golden_stream = value();
        } else if (arg == "--host") {
            *host = true;
        } else {
            usage(("unknown flag " + std::string(arg)).c_str());
        }
    }
    return opts;
}

/** Host facts recorded beside a baseline. */
void
printHost()
{
    std::printf(
        "{\"cpu\":%s,\"nproc\":%u,\"l2_bytes\":%llu,\"llc_bytes\":%llu,"
        "\"stream_threshold_bytes\":%zu,\"decode_threads\":%u,"
        "\"simd_isa\":%s,\"simd_active\":%s}\n",
        jsonString(util::hostCpuModel()).c_str(), util::hostCores(),
        static_cast<unsigned long long>(util::hostCacheBytes(2)),
        static_cast<unsigned long long>(util::hostCacheBytes(3)),
        sim::streamThresholdBytes(),
        static_cast<unsigned>(sim::streamOptions().decode_threads),
        jsonString(core::solIsaName()).c_str(),
        jsonString(core::solActiveIsaName()).c_str());
}

int
run(const Options &opts)
{
    TempDir tmp;
    SpanLog log;
    log.on = opts.trace;
    std::unique_ptr<Workload> w = makeWorkload(opts, tmp.path(), log);
    const bool figure3 = opts.workload != "stream_sweep";

    // Set-up, repeated: setup_s is the median, so one slow repetition
    // (a cold page cache, a descheduled child) does not move it.
    std::vector<double> setups;
    std::vector<Iteration> warmups;
    for (unsigned r = 0; r < opts.setup_reps; ++r) {
        SpanLog::Scope span(log, "setup", "e2e");
        w->setup();
        warmups.push_back(w->iterate());
        setups.push_back(span.stop());
    }
    const Iteration ref = std::move(warmups.front());

    // The reference: the first warm-up, checked as a whole.
    const uint64_t digest = digestOf(ref.cells);
    std::string reference = "none";
    bool verified = ref.cells_failed == 0;
    if (!opts.record) {
        if (figure3 || !opts.golden_stream.empty()) {
            const std::string &want =
                figure3 ? opts.golden_fig3 : opts.golden_stream;
            reference = "golden";
            verified = verified && hex(digest) == want;
            if (hex(digest) != want)
                std::fprintf(stderr,
                             "dsmem_e2e: %s digest %s, golden %s\n",
                             opts.workload.c_str(), hex(digest).c_str(),
                             want.empty() ? "(none given)" : want.c_str());
        } else {
            reference = "oracle";
            const uint64_t oracle = w->oracle();
            verified = verified && oracle == digest;
            if (oracle != digest)
                std::fprintf(stderr,
                             "dsmem_e2e: %s digest %s, flat oracle %s\n",
                             opts.workload.c_str(), hex(digest).c_str(),
                             hex(oracle).c_str());
        }
    }
    size_t attempted = 0, failed = 0;
    auto check = [&](const Iteration &it) {
        attempted += w->cells();
        size_t bad = it.cells_failed;
        for (const auto &[key, hash] : it.cells) {
            auto found = ref.cells.find(key);
            bad += !verified || found == ref.cells.end() ||
                found->second != hash;
        }
        failed += bad;
    };
    for (size_t r = 1; r < warmups.size(); ++r)
        check(warmups[r]);
    check(ref);
    warmups.clear();

    std::vector<Metric> metrics;
    size_t samples = 0;
    std::string note; // Sample accounting for the human-readable line.
    if (!opts.trace) {
        std::vector<double> walls;
        Iteration best;
        best.wall_s = HUGE_VAL;
        const double start = now();
        while (opts.iters ? walls.size() < opts.iters
                          : now() - start < opts.seconds) {
            Iteration it = w->iterate();
            walls.push_back(it.wall_s);
            check(it);
            if (it.wall_s < best.wall_s)
                best = std::move(it);
        }
        samples = walls.size();
        const double p90 = quantile(walls, 0.9);
        note = std::to_string(std::count_if(walls.begin(), walls.end(),
                                            [p90](double t) {
                                                return t > p90;
                                            })) +
            " beyond p90, " + std::to_string(setups.size()) + " set-ups";
        // Throughput is taken at the fastest iteration: on a shared
        // host the median moves with neighbours' load (README), the
        // fastest iteration much less. The median and p90 are printed
        // beside it.
        metrics = {
            {"sim_minstr_per_s",
             static_cast<double>(best.instructions) / best.wall_s / 1e6,
             "Minstr/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", static_cast<double>(peakRssBytes()) / 1e6, "MB"},
            {"wall_best_s", best.wall_s, "s"},
            {"wall_p50_s", median(walls), "s"},
            {"wall_p90_s", p90, "s"},
        };
    } else {
        LayerReport layers =
            measureLayers(opts, tmp.path(), log, opts.workload == "fig3_cold");
        attempted += layers.cells;
        failed += layers.failed;
        metrics = std::move(layers.metrics);

        // Tracing overhead: the workload's own iteration alternately
        // with spans recorded and not.
        std::vector<double> traced, plain;
        const double start = now();
        const bool on = log.on;
        for (size_t k = 0;; ++k) {
            const bool done = opts.iters
                ? traced.size() >= opts.iters
                : now() - start >= opts.seconds && !traced.empty();
            if (done && k % 2 == 0)
                break;
            log.on = on && k % 2 == 1;
            SpanLog::Scope span(log, "iteration", "e2e");
            const Iteration it = w->iterate();
            (k % 2 ? traced : plain).push_back(span.stop());
            check(it);
        }
        log.on = on;
        samples = traced.size() + plain.size();
        note = "traced and untraced alternately";
        metrics.push_back(
            {"trace.overhead_frac", median(traced) / median(plain) - 1.0,
             "ratio"});
        if (!log.writeChromeTrace(opts.spans_path))
            throw std::runtime_error("cannot write " + opts.spans_path);
        std::printf("spans: %zu written to %s\n", log.spans().size(),
                    opts.spans_path.c_str());
    }

    const bool correct = verified && failed == 0;
    std::printf("%s seed %llu%s: %zu samples (%s), %zu/%zu cells "
                "failed, digest %s (reference: %s)\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                opts.trace ? " traced" : "", samples, note.c_str(), failed,
                attempted, hex(digest).c_str(), reference.c_str());
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = "{\"workload\":" + jsonString(opts.workload) +
        ",\"seed\":" + std::to_string(opts.seed) +
        ",\"trace\":" + (opts.trace ? "true" : "false") +
        ",\"smoke\":" + (opts.smoke ? "true" : "false") +
        ",\"digest\":" + jsonString(hex(digest)) +
        ",\"reference\":" + jsonString(reference) +
        ",\"correct\":" + (correct ? "true" : "false") +
        ",\"attempted\":" + std::to_string(attempted) +
        ",\"failed\":" + std::to_string(failed) +
        ",\"samples\":" + std::to_string(samples) + ",\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i)
        json += (i ? "," : "") + jsonString(metrics[i].name) +
            ":{\"value\":" + jsonNumber(metrics[i].value) +
            ",\"unit\":" + jsonString(metrics[i].unit) + "}";
    std::printf("%s}}\n", json.c_str());
    return 0;
}

} // namespace

} // namespace dsmem::e2e

int
main(int argc, char **argv)
{
    using namespace dsmem::e2e;

    // RunnerOptions and the SoL executor read these by default; a
    // stray one would silently change which path a workload measures.
    for (const char *var :
         {"DSMEM_STREAM_EXEC", "DSMEM_SIMD", "DSMEM_FAILPOINTS"}) {
        if (std::getenv(var)) {
            std::fprintf(stderr,
                         "dsmem_e2e: %s is set; unset it to benchmark\n",
                         var);
            return 2;
        }
    }

    bool host = false;
    const Options opts = parseArgs(argc, argv, &host);
    if (host) {
        printHost();
        return 0;
    }
    if (opts.workload != "fig3_cold" && opts.workload != "fig3_warm" &&
        opts.workload != "fig3_svc" && opts.workload != "stream_sweep")
        usage("--workload must be fig3_cold, fig3_warm, fig3_svc or "
              "stream_sweep");
    if (opts.trace && opts.spans_path.empty())
        usage("--trace needs --spans FILE");
    try {
        return run(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dsmem_e2e: %s\n", e.what());
        return 1;
    }
}
