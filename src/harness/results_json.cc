#include "harness/results_json.hh"

#include <array>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace vpred::harness
{
namespace
{

// Shortest representation that round-trips, so deterministic
// experiments produce byte-identical files.
std::string
jsonNumber(double v)
{
    std::array<char, 32> buf;
    const auto [ptr, ec] =
            std::to_chars(buf.data(), buf.data() + buf.size(), v);
    if (ec != std::errc{})
        return "0";
    return std::string(buf.data(), ptr);
}

} // namespace

ResultsJsonWriter::ResultsJsonWriter(std::string experiment,
                                     double trace_scale, unsigned jobs)
    : experiment_(std::move(experiment)),
      trace_scale_(trace_scale),
      jobs_(jobs),
      start_(std::chrono::steady_clock::now())
{
}

void
ResultsJsonWriter::add(const PredictorConfig& config,
                       const SuiteResult& suite)
{
    entries_.push_back({config, suite});
}

void
ResultsJsonWriter::addGrid(const std::vector<PredictorConfig>& configs,
                           const std::vector<SuiteResult>& suites)
{
    for (std::size_t i = 0; i < configs.size() && i < suites.size(); ++i)
        add(configs[i], suites[i]);
}

std::string
ResultsJsonWriter::escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof(hex), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += hex;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
ResultsJsonWriter::toJson() const
{
    double wall = wall_seconds_override_;
    if (wall < 0.0) {
        wall = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
    }

    std::ostringstream os;
    os << "{\n"
       << "  \"schema_version\": 9,\n"
       << "  \"experiment\": \"" << escape(experiment_) << "\",\n"
       << "  \"trace_scale\": " << jsonNumber(trace_scale_) << ",\n"
       << "  \"jobs\": " << jobs_ << ",\n"
       << "  \"wall_seconds\": " << jsonNumber(wall) << ",\n";
    if (execution_) {
        os << "  \"execution\": { \"path\": \""
           << escape(execution_->path()) << "\", \"cells\": "
           << execution_->cells << ", \"batched_cells\": "
           << execution_->batched_cells << ", \"fused_cells\": "
           << execution_->fused_cells << ", \"virtual_cells\": "
           << execution_->virtual_cells << ", \"trace_walks\": "
           << execution_->trace_walks << ", \"sweep_wall_seconds\": "
           << jsonNumber(execution_->wall_seconds)
           << ", \"trace_store_enabled\": "
           << (execution_->store_enabled ? "true" : "false")
           << ", \"trace_store_hits\": " << execution_->store_hits
           << ", \"trace_store_misses\": " << execution_->store_misses
           << ", \"trace_acquisition_ms\": "
           << jsonNumber(execution_->acquisition_seconds * 1000.0)
           << ", \"simd_backend\": \""
           << escape(execution_->simd_backend)
           << "\", \"vector_width\": " << execution_->vector_width
           << " },\n";
    }
    for (const auto& [name, kvs] : sections_) {
        os << "  \"" << escape(name) << "\": {";
        for (std::size_t i = 0; i < kvs.size(); ++i) {
            os << (i == 0 ? "\n" : ",\n") << "    \""
               << escape(kvs[i].first)
               << "\": " << jsonNumber(kvs[i].second);
        }
        os << "\n  },\n";
    }
    for (const Table& t : tables_) {
        os << "  \"" << escape(t.name) << "\": {\n"
           << "    \"columns\": [";
        for (std::size_t i = 0; i < t.columns.size(); ++i)
            os << (i == 0 ? "" : ", ") << "\"" << escape(t.columns[i])
               << "\"";
        os << "],\n    \"rows\": [";
        for (std::size_t r = 0; r < t.rows.size(); ++r) {
            os << (r == 0 ? "\n" : ",\n") << "      [";
            for (std::size_t c = 0; c < t.rows[r].size(); ++c) {
                const JsonValue& v = t.rows[r][c];
                os << (c == 0 ? "" : ", ");
                if (v.isText())
                    os << "\"" << escape(v.text()) << "\"";
                else
                    os << jsonNumber(v.number());
            }
            os << "]";
        }
        os << (t.rows.empty() ? "]" : "\n    ]") << "\n  },\n";
    }
    if (!metrics_.empty()) {
        os << "  \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            os << (i == 0 ? "\n" : ",\n") << "    \""
               << escape(metrics_[i].first)
               << "\": " << jsonNumber(metrics_[i].second);
        }
        os << "\n  },\n";
    }
    os << "  \"results\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        os << (i == 0 ? "\n" : ",\n")
           << "    {\n"
           << "      \"predictor\": \"" << escape(e.suite.predictor)
           << "\",\n"
           << "      \"kind\": \"" << escape(kindName(e.config.kind))
           << "\",\n"
           << "      \"l1_bits\": " << e.config.l1_bits << ",\n"
           << "      \"l2_bits\": " << e.config.l2_bits << ",\n"
           << "      \"storage_kbit\": " << jsonNumber(e.suite.storageKbit())
           << ",\n"
           << "      \"accuracy\": " << jsonNumber(e.suite.accuracy())
           << ",\n"
           << "      \"predictions\": " << e.suite.total.predictions
           << ",\n"
           << "      \"correct\": " << e.suite.total.correct << ",\n"
           << "      \"per_workload\": [";
        for (std::size_t w = 0; w < e.suite.per_workload.size(); ++w) {
            const RunResult& r = e.suite.per_workload[w];
            os << (w == 0 ? "\n" : ",\n")
               << "        { \"workload\": \"" << escape(r.workload)
               << "\", \"accuracy\": " << jsonNumber(r.accuracy())
               << ", \"predictions\": " << r.stats.predictions
               << ", \"correct\": " << r.stats.correct << " }";
        }
        os << (e.suite.per_workload.empty() ? "]" : "\n      ]") << "\n"
           << "    }";
    }
    os << (entries_.empty() ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

bool
ResultsJsonWriter::write() const
{
    namespace fs = std::filesystem;
    const std::string path = "results/BENCH_" + experiment_ + ".json";
    try {
        fs::create_directories("results");
        std::ofstream out(path);
        if (!out) {
            std::cerr << "warning: cannot write " << path << "\n";
            return false;
        }
        out << toJson();
        return static_cast<bool>(out);
    } catch (const std::exception& e) {
        std::cerr << "warning: JSON write failed for " << path << ": "
                  << e.what() << "\n";
        return false;
    }
}

} // namespace vpred::harness
