#include "runner/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "runner/result_sink.h"
#include "util/failpoint.h"

namespace dsmem::runner {

namespace {

constexpr uint32_t kJournalVersion = 1;

/**
 * Round-trip-exact double rendering for *result* fields (sampling
 * statistics): a resumed campaign must restore the bit-identical
 * value, where jsonDouble()'s 6 fixed digits are only fit for
 * wall-clock noise. max_digits10 defaultfloat never prints nan/inf
 * for finite values and parses back through getDouble()'s strtod.
 */
std::string
jsonDoubleExact(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/**
 * Minimal field extraction for the journal's own line grammar: every
 * line was written by this file, keys are unique per line, and string
 * values are jsonEscape()d. This is not a general JSON parser and
 * does not need to be — anything it cannot read is a corrupt journal.
 */
bool
findRaw(const std::string &line, const char *key, size_t &pos)
{
    std::string needle = std::string("\"") + key + "\":";
    size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    pos = at + needle.size();
    return true;
}

bool
getU64(const std::string &line, const char *key, uint64_t &out)
{
    size_t pos;
    if (!findRaw(line, key, pos))
        return false;
    // strtoull silently skips whitespace and wraps a '-' sign
    // ("-1" -> UINT64_MAX); every number this file writes starts
    // with a digit, so anything else is a corrupt journal.
    if (pos >= line.size() || line[pos] < '0' || line[pos] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(line.c_str() + pos, &end, 10);
    if (end == line.c_str() + pos || errno != 0)
        return false;
    out = v;
    return true;
}

bool
getDouble(const std::string &line, const char *key, double &out)
{
    size_t pos;
    if (!findRaw(line, key, pos))
        return false;
    // jsonDouble() writes fixed notation, so a valid value is
    // [-]digits[.digits] — reject nan/inf/whitespace up front.
    size_t first = pos;
    if (first < line.size() && line[first] == '-')
        ++first;
    if (first >= line.size() || line[first] < '0' || line[first] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(line.c_str() + pos, &end);
    if (end == line.c_str() + pos || errno != 0)
        return false;
    out = v;
    return true;
}

bool
getString(const std::string &line, const char *key, std::string &out)
{
    size_t pos;
    if (!findRaw(line, key, pos))
        return false;
    if (pos >= line.size() || line[pos] != '"')
        return false;
    ++pos;
    out.clear();
    while (pos < line.size() && line[pos] != '"') {
        char c = line[pos];
        if (c == '\\') {
            if (pos + 1 >= line.size())
                return false;
            char esc = line[pos + 1];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos + 5 >= line.size())
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = line[pos + 2 + i];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else
                        return false;
                }
                out += static_cast<char>(code);
                pos += 4;
                break;
              }
              default:
                return false;
            }
            pos += 2;
        } else {
            out += c;
            ++pos;
        }
    }
    return pos < line.size();
}

std::string
formatRow(const JournalRow &r)
{
    const core::Breakdown &bd = r.result.breakdown;
    std::ostringstream os;
    os << "{\"t\":\"row\",\"unit\":" << r.unit
       << ",\"spec\":" << r.spec << ",\"label\":\""
       << jsonEscape(r.label) << "\",\"cycles\":" << r.result.cycles
       << ",\"busy\":" << bd.busy << ",\"sync\":" << bd.sync
       << ",\"read\":" << bd.read << ",\"write\":" << bd.write
       << ",\"pipeline\":" << bd.pipeline
       << ",\"instructions\":" << r.result.instructions
       << ",\"branches\":" << r.result.branches
       << ",\"mispredicts\":" << r.result.mispredicts
       << ",\"read_misses\":" << r.result.read_misses
       << ",\"wall_ms\":" << jsonDouble(r.wall_ms);
    // Sampling keys appear only on sampled rows, so an exact
    // campaign's journal stays byte-identical to pre-sampling builds.
    if (r.sampling.sampled)
        os << ",\"s_windows\":" << r.sampling.windows
           << ",\"s_measured\":" << r.sampling.measured
           << ",\"s_mean\":" << jsonDoubleExact(r.sampling.cpi_mean)
           << ",\"s_ci\":" << jsonDoubleExact(r.sampling.ci95);
    os << "}";
    return os.str();
}

std::string
formatTrace(const JournalTrace &t)
{
    std::ostringstream os;
    os << "{\"t\":\"trace\",\"unit\":" << t.unit << ",\"origin\":\""
       << jsonEscape(t.origin)
       << "\",\"instructions\":" << t.instructions
       << ",\"wall_ms\":" << jsonDouble(t.wall_ms)
       << ",\"gen_ms\":" << jsonDouble(t.gen_ms)
       << ",\"load_ms\":" << jsonDouble(t.load_ms) << "}";
    return os.str();
}

bool
parseRow(const std::string &line, JournalRow &r)
{
    uint64_t unit, spec;
    if (!getU64(line, "unit", unit) || !getU64(line, "spec", spec) ||
        !getString(line, "label", r.label))
        return false;
    r.unit = static_cast<size_t>(unit);
    r.spec = static_cast<size_t>(spec);
    core::Breakdown &bd = r.result.breakdown;
    if (!(getU64(line, "cycles", r.result.cycles) &&
          getU64(line, "busy", bd.busy) &&
          getU64(line, "sync", bd.sync) &&
          getU64(line, "read", bd.read) &&
          getU64(line, "write", bd.write) &&
          getU64(line, "pipeline", bd.pipeline) &&
          getU64(line, "instructions", r.result.instructions) &&
          getU64(line, "branches", r.result.branches) &&
          getU64(line, "mispredicts", r.result.mispredicts) &&
          getU64(line, "read_misses", r.result.read_misses) &&
          getDouble(line, "wall_ms", r.wall_ms)))
        return false;
    // Sampled rows carry all four s_* keys; a partial set is a
    // corrupt record, not an exact row.
    if (getU64(line, "s_windows", r.sampling.windows)) {
        r.sampling.sampled = true;
        return getU64(line, "s_measured", r.sampling.measured) &&
               getDouble(line, "s_mean", r.sampling.cpi_mean) &&
               getDouble(line, "s_ci", r.sampling.ci95);
    }
    return true;
}

std::string
formatLease(const JournalLease &l)
{
    std::ostringstream os;
    os << "{\"t\":\"lease\",\"unit\":" << l.unit
       << ",\"spec\":" << l.spec << ",\"worker\":" << l.worker
       << ",\"epoch\":" << l.epoch << "}";
    return os.str();
}

bool
parseLease(const std::string &line, JournalLease &l)
{
    uint64_t unit, spec, worker;
    if (!getU64(line, "unit", unit) || !getU64(line, "spec", spec) ||
        !getU64(line, "worker", worker) ||
        !getU64(line, "epoch", l.epoch))
        return false;
    l.unit = static_cast<size_t>(unit);
    l.spec = static_cast<size_t>(spec);
    l.worker = static_cast<uint32_t>(worker);
    return true;
}

bool
parseTrace(const std::string &line, JournalTrace &t)
{
    uint64_t unit;
    if (!getU64(line, "unit", unit) ||
        !getString(line, "origin", t.origin))
        return false;
    t.unit = static_cast<size_t>(unit);
    return getU64(line, "instructions", t.instructions) &&
           getDouble(line, "wall_ms", t.wall_ms) &&
           getDouble(line, "gen_ms", t.gen_ms) &&
           getDouble(line, "load_ms", t.load_ms);
}

/**
 * Truncate a torn final line (no trailing '\n' — a crash mid-append)
 * back to the byte after the last '\n', so the next append starts on
 * a fresh line. Returns the new size, or -1 on I/O error.
 */
off_t
trimTornTail(int fd, off_t size)
{
    char last;
    if (::pread(fd, &last, 1, size - 1) != 1)
        return -1;
    if (last == '\n')
        return size;
    char buf[4096];
    off_t end = size;
    while (end > 0) {
        size_t chunk = static_cast<size_t>(
            std::min<off_t>(end, static_cast<off_t>(sizeof buf)));
        if (::pread(fd, buf, chunk, end - chunk) !=
            static_cast<ssize_t>(chunk))
            return -1;
        for (size_t i = chunk; i > 0; --i) {
            if (buf[i - 1] == '\n') {
                off_t keep = end - chunk + static_cast<off_t>(i);
                if (::ftruncate(fd, keep) != 0)
                    return -1;
                return keep;
            }
        }
        end -= static_cast<off_t>(chunk);
    }
    // No newline anywhere: the whole file is one torn line.
    if (::ftruncate(fd, 0) != 0)
        return -1;
    return 0;
}

/** Read the first '\n'-terminated line (header lines are short). */
bool
readFirstLine(int fd, std::string &line)
{
    char buf[4096];
    ssize_t n = ::pread(fd, buf, sizeof buf, 0);
    if (n <= 0)
        return false;
    const char *nl = static_cast<const char *>(
        std::memchr(buf, '\n', static_cast<size_t>(n)));
    if (!nl)
        return false;
    line.assign(buf, static_cast<size_t>(nl - buf));
    return true;
}

} // namespace

CampaignJournal::~CampaignJournal() { close(); }

bool
CampaignJournal::open(const std::string &path, const std::string &bench,
                      uint64_t signature, bool resume, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };

    std::error_code fp_ec;
    if (util::failpointEc("journal.open", fp_ec))
        return fail("open " + path + ": " + fp_ec.message());

    // O_RDWR rather than O_WRONLY: opening must read back the header
    // and the tail to validate what it is about to append to.
    // O_CLOEXEC: a forked service worker must not hold the journal.
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                    0644);
    if (fd < 0)
        return fail("open " + path + ": " +
                    std::string(std::strerror(errno)));

    off_t size = ::lseek(fd, 0, SEEK_END);
    if (size > 0) {
        size = trimTornTail(fd, size);
        if (size < 0) {
            int saved = errno;
            ::close(fd);
            return fail("trim torn tail of " + path + ": " +
                        std::string(std::strerror(saved)));
        }
    }
    if (size > 0) {
        // Appending into someone else's journal would corrupt it, and
        // replay() would only notice if that campaign ever resumed —
        // so the header is checked here, before the first append.
        std::string header, type;
        uint64_t sig = 0;
        if (!readFirstLine(fd, header) ||
            !getString(header, "t", type) || type != "campaign" ||
            !getU64(header, "signature", sig)) {
            ::close(fd);
            return fail("journal " + path +
                        " has no readable campaign header; refusing "
                        "to append");
        }
        if (sig != signature) {
            ::close(fd);
            return fail("journal " + path +
                        " belongs to a different campaign declaration "
                        "(signature mismatch); refusing to append");
        }
        if (!resume) {
            // Same campaign, fresh (non --resume) run: the old
            // records are obsolete and would duplicate the new ones.
            if (::ftruncate(fd, 0) != 0) {
                int saved = errno;
                ::close(fd);
                return fail("truncate stale journal " + path + ": " +
                            std::string(std::strerror(saved)));
            }
            size = 0;
        }
    }

    std::lock_guard<std::mutex> lock(mu_);
    fd_ = fd;
    failed_ = false;
    failure_.clear();
    if (size == 0) {
        std::ostringstream os;
        os << "{\"t\":\"campaign\",\"version\":" << kJournalVersion
           << ",\"bench\":\"" << jsonEscape(bench)
           << "\",\"signature\":" << signature << "}";
        appendLines(os.str() + '\n');
        if (failed_) {
            std::string why = failure_;
            ::close(fd_);
            fd_ = -1;
            return fail("journal header write failed: " + why);
        }
    }
    return true;
}

bool
CampaignJournal::replay(const std::string &path, uint64_t signature,
                        std::vector<JournalRow> &rows,
                        std::vector<JournalTrace> &traces,
                        std::string *err, JournalMeta *meta)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };

    std::ifstream is(path);
    if (!is)
        return fail("cannot open journal " + path);

    std::string line;
    bool saw_header = false;
    size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        // A torn final append has no trailing '}' (getline strips the
        // '\n' a complete record always ends with before it).
        bool torn = line.back() != '}';
        std::string type;
        if (!torn && !getString(line, "t", type))
            torn = true;
        if (torn) {
            if (is.peek() == std::ifstream::traits_type::eof())
                break; // Tolerated: crash mid-append.
            return fail("corrupt journal line " +
                        std::to_string(lineno) + " in " + path);
        }
        if (type == "campaign") {
            uint64_t sig = 0;
            if (!getU64(line, "signature", sig))
                return fail("journal header missing signature: " +
                            path);
            if (sig != signature)
                return fail(
                    "journal " + path +
                    " belongs to a different campaign declaration "
                    "(signature mismatch); refusing to resume");
            saw_header = true;
        } else if (!saw_header) {
            // The signature gate only means something if it is
            // checked before any data is accepted; a header buried
            // later in a corrupt/concatenated file must not
            // retroactively bless earlier records.
            return fail("journal " + path +
                        " does not start with a campaign header "
                        "(line " + std::to_string(lineno) + ")");
        } else if (type == "row") {
            JournalRow r;
            if (!parseRow(line, r))
                return fail("corrupt row record at line " +
                            std::to_string(lineno) + " in " + path);
            rows.push_back(std::move(r));
        } else if (type == "trace") {
            JournalTrace t;
            if (!parseTrace(line, t))
                return fail("corrupt trace record at line " +
                            std::to_string(lineno) + " in " + path);
            traces.push_back(std::move(t));
        } else if (type == "epoch") {
            uint64_t e = 0;
            if (!getU64(line, "epoch", e))
                return fail("corrupt epoch record at line " +
                            std::to_string(lineno) + " in " + path);
            if (meta && e > meta->last_epoch)
                meta->last_epoch = e;
        } else if (type == "lease") {
            JournalLease l;
            if (!parseLease(line, l))
                return fail("corrupt lease record at line " +
                            std::to_string(lineno) + " in " + path);
            if (meta)
                meta->leases.push_back(l);
        } else {
            return fail("unknown journal record type '" + type +
                        "' at line " + std::to_string(lineno));
        }
    }
    if (!saw_header)
        return fail("journal " + path + " has no campaign header");
    return true;
}

void
CampaignJournal::appendTrace(const JournalTrace &t)
{
    std::lock_guard<std::mutex> lock(mu_);
    appendLines(formatTrace(t) + '\n');
}

void
CampaignJournal::appendRow(const JournalRow &r)
{
    std::lock_guard<std::mutex> lock(mu_);
    appendLines(formatRow(r) + '\n');
}

void
CampaignJournal::appendEpoch(uint64_t epoch, uint32_t workers)
{
    std::ostringstream os;
    os << "{\"t\":\"epoch\",\"epoch\":" << epoch
       << ",\"workers\":" << workers << "}";
    std::lock_guard<std::mutex> lock(mu_);
    appendLines(os.str() + '\n');
}

void
CampaignJournal::appendLeases(const std::vector<JournalLease> &leases)
{
    std::string lines;
    for (const JournalLease &l : leases)
        lines += formatLease(l) + '\n';
    std::lock_guard<std::mutex> lock(mu_);
    appendLines(lines);
}

void
CampaignJournal::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
CampaignJournal::appendLines(const std::string &lines)
{
    // Caller holds mu_.
    if (fd_ < 0 || failed_ || lines.empty())
        return;
    std::error_code fp_ec;
    if (util::failpointEc("journal.append", fp_ec)) {
        failed_ = true;
        failure_ = "append: " + fp_ec.message();
        return;
    }
    const char *p = lines.data();
    size_t left = lines.size();
    while (left > 0) {
        ssize_t n = ::write(fd_, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            failed_ = true;
            failure_ =
                "append: " + std::string(std::strerror(errno));
            return;
        }
        p += n;
        left -= static_cast<size_t>(n);
    }
    if (::fsync(fd_) != 0) {
        failed_ = true;
        failure_ = "fsync: " + std::string(std::strerror(errno));
    }
}

} // namespace dsmem::runner
