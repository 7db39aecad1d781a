/**
 * @file
 * Helpers shared by the benchmark's programs: the monotonic clock, the
 * in-memory span log of traced runs, quantiles, peak RSS and a flat
 * JSON object writer for the result each program prints.
 */

#ifndef PERFBENCH_BENCH_COMMON_HH
#define PERFBENCH_BENCH_COMMON_HH

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** CLOCK_MONOTONIC in nanoseconds: the same clock Python's
 *  time.monotonic_ns() reads, so spans of every process line up. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count());
}

inline double
secondsBetween(std::uint64_t t0, std::uint64_t t1)
{
    return static_cast<double>(t1 - t0) / 1e9;
}

/** Restart this process's peak-RSS watermark (VmHWM) at its current
 *  RSS, so peakRssMib() covers only what follows. */
inline void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set (VmHWM) since start or resetPeakRss(), in MiB;
 *  the rusage maximum where /proc is unavailable. */
inline double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            in >> kb;
            return kb / 1024.0;
        }
        in.ignore(256, '\n');
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** One recorded span: a timed call into a layer, with up to three
 *  named counts. Names and count keys are string literals. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  //!< 0 = child of the run's root
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::array<std::pair<const char*, double>, 3> counts{};
};

/**
 * Spans of one recording thread, kept in memory until the run ends.
 * Each thread owns its log; ids are unique across logs because each
 * log draws from its own id range.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::uint64_t id_base) : next_id_(id_base + 1) {}

    std::uint64_t
    add(const char* name, std::uint64_t parent, std::uint64_t start_ns,
        std::uint64_t end_ns,
        std::pair<const char*, double> c0 = {nullptr, 0.0},
        std::pair<const char*, double> c1 = {nullptr, 0.0},
        std::pair<const char*, double> c2 = {nullptr, 0.0})
    {
        const std::uint64_t id = next_id_++;
        spans_.push_back({id, parent, name, start_ns, end_ns, {c0, c1, c2}});
        return id;
    }

    /** Reserve an id for a span whose end is not known yet; record
     *  it later with addWithId(). */
    std::uint64_t reserveId() { return next_id_++; }

    void
    addWithId(std::uint64_t id, const char* name, std::uint64_t parent,
              std::uint64_t start_ns, std::uint64_t end_ns,
              std::pair<const char*, double> c0 = {nullptr, 0.0})
    {
        spans_.push_back({id, parent, name, start_ns, end_ns,
                          {c0, {nullptr, 0.0}, {nullptr, 0.0}}});
    }

    const std::vector<Span>& spans() const { return spans_; }

  private:
    std::uint64_t next_id_;
    std::vector<Span> spans_;
};

/** Append @p log's spans to @p path as JSON lines. */
inline bool
writeSpans(const std::string& path, const std::vector<const SpanLog*>& logs)
{
    std::ofstream out(path, std::ios::app);
    if (!out)
        return false;
    out << std::setprecision(17);
    for (const SpanLog* log : logs) {
        for (const Span& s : log->spans()) {
            out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
                << ",\"name\":\"" << s.name << "\",\"start_ns\":"
                << s.start_ns << ",\"end_ns\":" << s.end_ns
                << ",\"counts\":{";
            bool first = true;
            for (const auto& [key, value] : s.counts) {
                if (key == nullptr)
                    continue;
                out << (first ? "" : ",") << '"' << key << "\":" << value;
                first = false;
            }
            out << "}}\n";
        }
    }
    return static_cast<bool>(out);
}

/** Linear-interpolated quantile of sorted @p v (0 when empty). */
inline double
quantileSorted(const std::vector<double>& v, double q)
{
    if (v.empty())
        return 0.0;
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return quantileSorted(v, 0.5);
}

/** Quantile of (value, weight) samples: the smallest value whose
 *  cumulative weight reaches q of the total. Sorts @p samples. */
inline double
weightedQuantile(std::vector<std::pair<double, std::uint64_t>>& samples,
                 double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    std::uint64_t total = 0;
    for (const auto& s : samples)
        total += s.second;
    const double target = q * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (const auto& s : samples) {
        seen += s.second;
        if (static_cast<double>(seen) >= target)
            return s.first;
    }
    return samples.back().first;
}

/** Flat JSON object writer: numbers keep all their digits. */
class JsonObject
{
  public:
    JsonObject& num(const std::string& key, double v)
    {
        sep();
        out_ << '"' << key << "\":";
        if (std::isfinite(v))
            out_ << std::setprecision(17) << v;
        else
            out_ << "null";
        return *this;
    }
    JsonObject& str(const std::string& key, const std::string& v)
    {
        sep();
        out_ << '"' << key << "\":\"" << v << '"';
        return *this;
    }
    JsonObject& list(const std::string& key, const std::vector<double>& v)
    {
        sep();
        out_ << '"' << key << "\":[";
        for (std::size_t i = 0; i < v.size(); ++i)
            out_ << (i ? "," : "") << std::setprecision(17) << v[i];
        out_ << ']';
        return *this;
    }
    JsonObject& object(const std::string& key, const JsonObject& o)
    {
        sep();
        out_ << '"' << key << "\":" << o.text();
        return *this;
    }
    std::string text() const
    {
        std::string s(1, '{');
        s += out_.str();
        s += '}';
        return s;
    }

  private:
    void sep()
    {
        if (!empty_)
            out_ << ',';
        empty_ = false;
    }
    std::ostringstream out_;
    bool empty_ = true;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_COMMON_HH
