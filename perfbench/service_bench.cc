/**
 * @file
 * The benchmark's two service workloads, driven only through
 * PredictionService's public API (registerProducer, tryIngest, flush,
 * pump, stats, ingestStats, streamState).
 *
 *   churn  Closed loop. One producer thread pushes one record for each
 *          of 1M streams per pass, as fast as ring backpressure allows,
 *          into 2 shards of 2^14 resident slots, so nearly every record
 *          evicts a resident stream and restores a spilled one.
 *   paced  Open loop. One producer thread replays the eight paper
 *          traces, interleaved by the seed, at 4M records/s in bursts
 *          due every 1 ms. Each (benchmark, pc) pair is one stream; all
 *          of them fit in the shards, so nothing is evicted.
 *
 * The calling thread pumps; the service's pool runs one drain per
 * shard. Latency is measured outside the service: the producer stamps
 * records (churn: every 64th record, when its push succeeds; paced:
 * every record, at its burst's due time) and the pump loop logs when
 * each pump() returned and the cumulative record count returned so
 * far. Records are credited to pumps in push order: a record is
 * predicted when the first pump whose cumulative count passes it
 * returns. Each latency quantile is taken within each of 40 windows
 * of the run; the median over the windows is reported
 * (windowedLatency). Paced records of a burst the
 * generator started more than one burst interval late are left out
 * (and counted): their latency is the host's, not the service's.
 *
 * Set-up runs kSetups times; the last set-up's service is measured.
 *
 * Usage:
 *   perfbench_service_bench --workload churn|paced --seed N --seconds S
 *       --work DIR [--trace 0|1] [--spans FILE] [--withhold-last 0|1]
 *
 * --withhold-last 1 skips the tryIngest of the run's last record while
 * still counting it as pushed: the oracle self-check uses it to prove
 * the lost-record and stream-state oracles fire. (The last record, as
 * DFCM level-1 state forgets a missing value a few updates later.)
 * Prints one JSON object on stdout.
 */

#include <atomic>
#include <exception>
#include <filesystem>
#include <iostream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/multi_geom.hh"
#include "core/parse_util.hh"
#include "harness/trace_cache.hh"
#include "service/prediction_service.hh"
#include "workloads/workload.hh"

namespace
{

using perfbench::nowNs;
using perfbench::secondsBetween;
using perfbench::SpanLog;
using vpred::TraceRecord;
using vpred::Value;
using vpred::service::PredictionService;
using vpred::service::Producer;
using vpred::service::ServiceConfig;

constexpr unsigned kShards = 2;
constexpr unsigned kSetups = 3;  //!< setup_s is their median
constexpr unsigned kWindows = 40;  //!< latency windows per run

// churn
constexpr std::uint64_t kChurnStreams = 1'000'000;
/** Timed passes per requested second: the fixed work of a run, sized
 *  so a run measures about --seconds at 8M records/s. */
constexpr double kChurnPassesPerSecond = 8.0;
constexpr std::uint64_t kStampStride = 64;
constexpr std::uint64_t kChunkRecords = 4096;  //!< producer span size
constexpr unsigned kChurnSampledStreams = 64;

// paced
constexpr std::uint64_t kBurstNs = 1'000'000;
constexpr std::uint64_t kBurstRecords = 4000;  //!< 4M records/s offered
constexpr std::uint64_t kPacedWarmupRecords = std::uint64_t{1} << 20;
constexpr std::uint64_t kPacedLeadNs = 2'000'000;
constexpr std::uint64_t kSpinNs = 200'000;  //!< spin before each burst
constexpr unsigned kPacedSampledStreams = 16;
constexpr std::uint64_t kMaxRunLength = 64;  //!< interleave run cap

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** SplitMix64: the benchmark's own seeded generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : s_(seed) {}
    std::uint64_t next() { return mix64(s_ += 0x9e3779b97f4a7c15ull); }

  private:
    std::uint64_t s_;
};

/** Round @p round of churn stream @p stream: a seeded per-stream base
 *  plus a seeded per-stream stride, so DFCM learns every stream. */
Value
churnValue(std::uint64_t seed, std::uint64_t stream, std::uint64_t round)
{
    const std::uint64_t h = mix64(seed * 0x9e3779b97f4a7c15ull ^ mix64(stream));
    const std::uint64_t base = h & 0xffffffffull;
    const std::uint64_t stride = ((h >> 32) & 0xff) + 1;
    return (base + round * stride) & 0xffffffffull;
}

/** Churn records in push order: record i is stream i % N, round i / N. */
class ChurnSource
{
  public:
    ChurnSource(std::uint64_t seed, std::uint64_t first)
        : seed_(seed), stream_(first % kChurnStreams),
          round_(first / kChurnStreams)
    {
    }

    std::pair<std::uint64_t, Value>
    next()
    {
        const std::pair<std::uint64_t, Value> rec{
                stream_, churnValue(seed_, stream_, round_)};
        if (++stream_ == kChurnStreams) {
            stream_ = 0;
            ++round_;
        }
        return rec;
    }

  private:
    std::uint64_t seed_;
    std::uint64_t stream_;
    std::uint64_t round_;
};

/** Stream id of (benchmark index, pc). */
std::uint64_t
pacedStreamId(std::size_t bench, vpred::Pc pc)
{
    return (std::uint64_t{bench + 1} << 48) | (pc & 0xffffffffffffull);
}

/**
 * The eight paper traces interleaved by the seed: runs of 1..64
 * records from a randomly chosen trace. Each trace keeps its own
 * order and starts over when it runs out.
 */
class Replay
{
  public:
    Replay(std::vector<std::span<const TraceRecord>> traces,
           std::uint64_t seed)
        : traces_(std::move(traces)), pos_(traces_.size(), 0), rng_(seed)
    {
    }

    std::pair<std::uint64_t, Value>
    next()
    {
        if (left_ == 0) {
            cur_ = static_cast<std::size_t>(rng_.next() % traces_.size());
            left_ = 1 + rng_.next() % kMaxRunLength;
        }
        --left_;
        std::size_t& pos = pos_[cur_];
        if (pos == traces_[cur_].size())
            pos = 0;
        const TraceRecord& r = traces_[cur_][pos++];
        return {pacedStreamId(cur_, r.pc), r.value};
    }

  private:
    std::vector<std::span<const TraceRecord>> traces_;
    std::vector<std::size_t> pos_;
    Rng rng_;
    std::size_t cur_ = 0;
    std::uint64_t left_ = 0;
};

struct Burst
{
    std::uint64_t due_ns = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t first = 0;  //!< section-relative ingested index
    std::uint64_t count = 0;
};

struct PushLog
{
    std::uint64_t pushed = 0;      //!< records meant to be pushed
    std::uint64_t ingested = 0;    //!< successful tryIngest calls
    std::uint64_t calls = 0;       //!< tryIngest calls
    std::uint64_t rejected = 0;    //!< calls that returned false
    std::uint64_t blocked_ns = 0;  //!< time retrying rejected pushes
    std::uint64_t push_ns = 0;     //!< time inside chunks and bursts
    /** Of push_ns, the time a second pass spends generating the same
     *  records without pushing them: the benchmark's own share. */
    std::uint64_t generate_ns = 0;
    /** Unpaced: push time of every kStampStride-th ingested record. */
    std::vector<std::uint64_t> stamps;
    std::vector<Burst> bursts;  //!< paced only
};

struct PumpLog
{
    std::uint64_t calls = 0;
    std::uint64_t empty = 0;
    std::uint64_t busy_ns = 0;  //!< time in pumps that returned records
    std::uint64_t backlog_max = 0;
    std::uint64_t drained = 0;
    /** (return time, cumulative records) of each non-empty pump. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> drains;
    std::vector<double> records_per_call;
};

struct Section
{
    PushLog push;
    PumpLog pump;
    std::uint64_t start_ns = 0;  //!< first push, or first burst due
    std::uint64_t end_ns = 0;    //!< return of the last draining pump
};

/** Span logs of a traced section: one per recording thread. */
struct Tracer
{
    SpanLog main{0};
    SpanLog producer{std::uint64_t{1} << 40};
    SpanLog pump{std::uint64_t{2} << 40};
    std::uint64_t section = 0;  //!< parent of the section's spans
};

/**
 * Push @p records records from @p source through @p svc on a producer
 * thread while this thread pumps, until every pushed record has been
 * returned by a pump. Paced sections push kBurstRecords per burst,
 * one burst due every kBurstNs, and flush after each burst.
 */
template <class Source>
Section
runSection(PredictionService& svc, Source& source, std::uint64_t records,
           bool paced, std::uint64_t first_global,
           std::optional<std::uint64_t> withhold, Tracer* tracer)
{
    Section sec;
    std::atomic<std::uint64_t> published{0};
    std::atomic<bool> done{false};
    std::exception_ptr error;
    const std::uint64_t t_begin = nowNs();
    const std::uint64_t t0 = paced ? t_begin + kPacedLeadNs : t_begin;
    sec.start_ns = t0;
    // Sized up front: growing a log inside the timed loop would stall
    // the thread that owns it.
    if (paced) {
        sec.push.bursts.reserve(records / kBurstRecords + 1);
        sec.pump.drains.reserve((records / kBurstRecords + 1) * 32);
    } else {
        sec.push.stamps.reserve(records / kStampStride + 1);
        sec.pump.drains.reserve(records / 512 + 64);
    }
    sec.pump.records_per_call.reserve(sec.pump.drains.capacity());

    std::thread producer([&] {
        try {
            PushLog& log = sec.push;
            Producer prod = svc.registerProducer();
            const auto push = [&](std::uint64_t stream, Value v,
                                  std::uint64_t tick) {
                ++log.calls;
                if (svc.tryIngest(prod, stream, v, tick))
                    return;
                ++log.rejected;
                const std::uint64_t b0 = nowNs();
                for (;;) {
                    std::this_thread::yield();
                    ++log.calls;
                    if (svc.tryIngest(prod, stream, v, tick))
                        break;
                    ++log.rejected;
                }
                log.blocked_ns += nowNs() - b0;
            };
            const auto withheld = [&](std::uint64_t i) {
                return withhold && first_global + i == *withhold;
            };
            std::uint64_t i = 0;
            if (paced) {
                for (std::uint64_t b = 0; i < records; ++b) {
                    const std::uint64_t due = t0 + b * kBurstNs;
                    // Sleep most of the gap, then spin: timer wake-up
                    // jitter would otherwise dominate the burst's lag.
                    std::this_thread::sleep_until(
                            std::chrono::steady_clock::time_point(
                                    std::chrono::nanoseconds(due - kSpinNs)));
                    std::uint64_t start = nowNs();
                    while (start < due)
                        start = nowNs();
                    const std::uint64_t first = log.ingested;
                    const std::uint64_t rejected0 = log.rejected;
                    const std::uint64_t end_i =
                            std::min(records, i + kBurstRecords);
                    for (; i < end_i; ++i) {
                        const auto [stream, value] = source.next();
                        ++log.pushed;
                        if (withheld(i))
                            continue;
                        push(stream, value, due);
                        ++log.ingested;
                    }
                    svc.flush(prod);
                    published.store(log.ingested,
                                    std::memory_order_relaxed);
                    const std::uint64_t end = nowNs();
                    log.push_ns += end - start;
                    log.bursts.push_back(
                            {due, start, first, log.ingested - first});
                    if (tracer)
                        tracer->producer.add(
                                "service.ingest.burst", tracer->section,
                                start, end,
                                {"records", static_cast<double>(
                                                    log.ingested - first)},
                                {"rejected",
                                 static_cast<double>(log.rejected
                                                     - rejected0)},
                                {"lag_ns", static_cast<double>(start - due)});
                }
            } else {
                std::uint64_t tick = nowNs();
                while (i < records) {
                    const std::uint64_t c0 = nowNs();
                    const std::uint64_t first = log.ingested;
                    const std::uint64_t rejected0 = log.rejected;
                    const std::uint64_t end_i =
                            std::min(records, i + kChunkRecords);
                    for (; i < end_i; ++i) {
                        const auto [stream, value] = source.next();
                        ++log.pushed;
                        if (withheld(i))
                            continue;
                        push(stream, value, tick);
                        if (++log.ingested % kStampStride == 0) {
                            tick = nowNs();
                            log.stamps.push_back(tick);
                            published.store(log.ingested,
                                            std::memory_order_relaxed);
                        }
                    }
                    const std::uint64_t c1 = nowNs();
                    log.push_ns += c1 - c0;
                    if (tracer)
                        tracer->producer.add(
                                "service.ingest.chunk", tracer->section,
                                c0, c1,
                                {"records", static_cast<double>(
                                                    log.ingested - first)},
                                {"rejected",
                                 static_cast<double>(log.rejected
                                                     - rejected0)});
                }
            }
            svc.unregisterProducer(prod);  // publishes the tail
        } catch (...) {
            error = std::current_exception();
        }
        done.store(true, std::memory_order_release);
    });

    PumpLog& pl = sec.pump;
    std::uint64_t idle_calls = 0;
    std::uint64_t idle_start = 0;
    std::uint64_t idle_end = 0;
    const auto closeIdle = [&] {
        if (tracer && idle_calls > 0)
            tracer->pump.add("service.pump.idle", tracer->section,
                             idle_start, idle_end,
                             {"calls", static_cast<double>(idle_calls)});
        idle_calls = 0;
    };
    for (;;) {
        // Read before pumping: once the producer is done, a pump that
        // returns nothing proves every published record was drained.
        const bool producer_done = done.load(std::memory_order_acquire);
        const std::uint64_t e = nowNs();
        const std::uint64_t seen =
                published.load(std::memory_order_relaxed);
        const std::uint64_t backlog = seen > pl.drained ? seen - pl.drained
                                                        : 0;
        pl.backlog_max = std::max(pl.backlog_max, backlog);
        const std::size_t got = svc.pump(e);
        const std::uint64_t x = nowNs();
        ++pl.calls;
        if (got > 0) {
            pl.drained += got;
            pl.drains.emplace_back(x, pl.drained);
            pl.busy_ns += x - e;
            pl.records_per_call.push_back(static_cast<double>(got));
            if (tracer) {
                closeIdle();
                tracer->pump.add("service.pump", tracer->section, e, x,
                                 {"records", static_cast<double>(got)},
                                 {"backlog", static_cast<double>(backlog)});
            }
            continue;
        }
        ++pl.empty;
        if (tracer) {
            if (idle_calls++ == 0)
                idle_start = e;
            idle_end = x;
        }
        if (producer_done)
            break;
        std::this_thread::yield();
    }
    closeIdle();
    producer.join();
    if (error)
        std::rethrow_exception(error);
    sec.end_ns = pl.drains.empty() ? nowNs() : pl.drains.back().first;
    return sec;
}

/** Keeps generateNs()'s records from being optimised away. */
volatile std::uint64_t generated_sink = 0;

/** Time @p records calls of @p source's next() with nothing pushed:
 *  the generator's share of a section's push time. */
template <class Source>
std::uint64_t
generateNs(Source source, std::uint64_t records)
{
    std::uint64_t acc = 0;
    const std::uint64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < records; ++i) {
        const auto [stream, value] = source.next();
        acc += stream ^ value;
    }
    const std::uint64_t t1 = nowNs();
    generated_sink = acc;
    return t1 - t0;
}

/** Latency quantiles of one section. */
struct Latency
{
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    /** p99 over all records at once: moved by a stall pattern that
     *  the windowed p99 ignores, and by host stalls too. */
    double whole_run_p99_ms = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t late_bursts = 0;  //!< paced bursts left out
};

/** (latency ms, records) samples of each of kWindows windows. */
using Windows = std::vector<std::vector<std::pair<double, std::uint64_t>>>;

/**
 * Each quantile is taken within each window; the result is the median
 * over the windows. A latency rise that reaches more than half of the
 * windows moves it (a stall recurring more often than every two
 * windows, 250 ms in a 5 s run, does), while a host stall confined to
 * fewer windows does not. In the noisy phases of a shared 4-vCPU
 * host, every statistic that a few windows move (the whole-run p99,
 * the 90th-percentile or trimmed-mean window) spread across seeds far
 * past the 25% bound; this one stayed nearest it.
 */
Latency
windowedLatency(Windows& windows)
{
    Latency out;
    std::vector<double> p50s, p99s;
    std::vector<std::pair<double, std::uint64_t>> all;
    for (auto& w : windows) {
        if (w.empty())
            continue;
        for (const auto& sample : w)
            out.samples += sample.second;
        all.insert(all.end(), w.begin(), w.end());
        p50s.push_back(perfbench::weightedQuantile(w, 0.50));
        p99s.push_back(perfbench::weightedQuantile(w, 0.99));
    }
    out.p50_ms = perfbench::median(p50s);
    out.p99_ms = perfbench::median(p99s);
    out.whole_run_p99_ms = perfbench::weightedQuantile(all, 0.99);
    return out;
}

/** Unpaced: the stamped records, each timed from its own push;
 *  windows by record order. */
Latency
unpacedLatency(const Section& sec)
{
    const PushLog& log = sec.push;
    const auto& drains = sec.pump.drains;
    Windows windows(kWindows);
    std::size_t k = 0;
    for (std::size_t s = 0; s < log.stamps.size(); ++s) {
        const std::uint64_t n = (s + 1) * kStampStride - 1;
        while (k < drains.size() && drains[k].second <= n)
            ++k;
        if (k == drains.size())
            break;  // never predicted: counted as lost elsewhere
        const std::uint64_t t = log.stamps[s];
        windows[n * kWindows / log.ingested].emplace_back(
                drains[k].first > t
                        ? static_cast<double>(drains[k].first - t) / 1e6
                        : 0.0,
                1);
    }
    return windowedLatency(windows);
}

/** Paced: every record, timed from its burst's due time; windows by
 *  burst order. */
Latency
pacedLatency(const Section& sec)
{
    const auto& bursts = sec.push.bursts;
    const auto& drains = sec.pump.drains;
    Windows windows(kWindows);
    std::uint64_t late = 0;
    std::size_t k = 0;
    for (std::size_t b = 0; b < bursts.size(); ++b) {
        if (bursts[b].start_ns > bursts[b].due_ns + kBurstNs) {
            ++late;
            continue;
        }
        auto& window = windows[b * kWindows / bursts.size()];
        std::uint64_t pos = bursts[b].first;
        const std::uint64_t end = pos + bursts[b].count;
        while (pos < end) {
            while (k < drains.size() && drains[k].second <= pos)
                ++k;
            if (k == drains.size())
                break;  // never predicted: counted as lost elsewhere
            const std::uint64_t upto = std::min(end, drains[k].second);
            window.emplace_back(static_cast<double>(drains[k].first
                                                    - bursts[b].due_ns)
                                        / 1e6,
                                upto - pos);
            pos = upto;
        }
    }
    Latency out = windowedLatency(windows);
    out.late_bursts = late;
    return out;
}

/**
 * The determinism oracle: every sampled stream's level-1 state in the
 * service must equal a single-stream MultiGeomDfcmKernel fed exactly
 * the values pushed for that stream. Returns the mismatch count.
 */
std::uint64_t
stateMismatches(const PredictionService& svc, const ServiceConfig& cfg,
                const std::vector<std::uint64_t>& streams,
                const std::vector<std::vector<Value>>& values)
{
    vpred::MultiGeomConfig ref_cfg;
    ref_cfg.l1_bits = cfg.l1_bits;
    ref_cfg.value_bits = cfg.value_bits;
    ref_cfg.stride_bits = cfg.stride_bits;
    ref_cfg.hash_shift = cfg.hash_shift;
    ref_cfg.l2_bits = cfg.l2_bits;
    vpred::MultiGeomDfcmKernel ref(ref_cfg);
    std::uint64_t mismatches = 0;
    vpred::ValueTrace own;
    for (std::size_t i = 0; i < streams.size(); ++i) {
        own.clear();
        for (const Value v : values[i])
            own.push_back({vpred::Pc{0}, v});
        ref.runTrace(own);
        const auto got = svc.streamState(streams[i]);
        const std::span<const std::uint32_t> want = ref.entryHists(0);
        if (!got || got->last != ref.lastValue(0)
            || !std::equal(got->hists.begin(), got->hists.end(),
                           want.begin(), want.end()))
            ++mismatches;
    }
    return mismatches;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 5.0;
    bool trace = false;
    std::string spans;
    std::string work;
    bool withhold_last = false;
};

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        const auto uint = [&](std::uint64_t hi) {
            const auto v = vpred::parseUInt(val, hi);
            if (!v)
                throw std::invalid_argument("bad value for " + key);
            return *v;
        };
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = uint(~std::uint64_t{0});
        else if (key == "--seconds") {
            const auto v = vpred::parseDouble(val);
            if (!v || *v <= 0.0 || *v > 3600.0)
                throw std::invalid_argument("bad value for --seconds");
            o.seconds = *v;
        } else if (key == "--trace")
            o.trace = uint(1) == 1;
        else if (key == "--spans")
            o.spans = val;
        else if (key == "--work")
            o.work = val;
        else if (key == "--withhold-last")
            o.withhold_last = uint(1) == 1;
        else
            throw std::invalid_argument("unknown argument " + key);
    }
    if (o.workload != "churn" && o.workload != "paced")
        throw std::invalid_argument("--workload must be churn or paced");
    if (o.work.empty())
        throw std::invalid_argument("--work is required");
    return o;
}

/** The service under test: library defaults except the shard count,
 *  which is explicit so every host runs the same shape. */
ServiceConfig
serviceConfig()
{
    ServiceConfig cfg;
    cfg.shards = kShards;
    return cfg;
}

perfbench::JsonObject
serviceCounters(const PredictionService& svc,
                const vpred::service::ServiceStats& s0,
                const vpred::service::IngestStats& i0,
                std::uint64_t records)
{
    const auto s1 = svc.stats();
    const auto i1 = svc.ingestStats();
    const auto per = [records](std::uint64_t n) {
        return records == 0 ? 0.0
                            : static_cast<double>(n)
                        / static_cast<double>(records);
    };
    const std::uint64_t publishes = i1.publishes - i0.publishes;
    perfbench::JsonObject o;
    o.num("service.evictions_per_record", per(s1.evictions - s0.evictions))
            .num("service.restores_per_record",
                 per(s1.restores - s0.restores))
            .num("service.resident_streams",
                 static_cast<double>(s1.resident_streams))
            .num("service.spilled_streams",
                 static_cast<double>(s1.spilled_streams))
            .num("service.full_events",
                 static_cast<double>(i1.full_events - i0.full_events))
            .num("service.quota_grows",
                 static_cast<double>(s1.quota_grows - s0.quota_grows))
            .num("service.quota_shrinks",
                 static_cast<double>(s1.quota_shrinks - s0.quota_shrinks))
            .num("service.mean_publish_batch",
                 publishes == 0
                         ? 0.0
                         : static_cast<double>(i1.published_records
                                               - i0.published_records)
                                 / static_cast<double>(publishes));
    return o;
}

void
addSectionLayers(perfbench::JsonObject& o, const Section& sec)
{
    const PushLog& p = sec.push;
    const PumpLog& q = sec.pump;
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b == 0 ? 0.0
                      : static_cast<double>(a) / static_cast<double>(b);
    };
    const std::uint64_t own_ns = p.blocked_ns + p.generate_ns;
    o.num("service.ingest.calls", static_cast<double>(p.calls))
            .num("service.ingest.rejected_ratio", ratio(p.rejected, p.calls))
            .num("service.ingest.ns_per_record",
                 ratio(p.push_ns - std::min(p.push_ns, own_ns), p.ingested))
            .num("service.ingest.blocked_s",
                 static_cast<double>(p.blocked_ns) / 1e9)
            .num("service.pump.calls", static_cast<double>(q.calls))
            .num("service.pump.busy_s", static_cast<double>(q.busy_ns) / 1e9)
            .num("service.pump.ns_per_record", ratio(q.busy_ns, q.drained))
            .num("service.pump.empty_ratio", ratio(q.empty, q.calls))
            .num("service.pump.records_per_call_p50",
                 perfbench::median(q.records_per_call))
            .num("service.backlog_max", static_cast<double>(q.backlog_max));
    std::vector<double> lag;
    for (const Burst& b : p.bursts)
        lag.push_back(static_cast<double>(b.start_ns - b.due_ns) / 1e6);
    std::sort(lag.begin(), lag.end());
    o.num("gen.lag_p99_ms", perfbench::quantileSorted(lag, 0.99))
            .num("gen.lag_max_ms", lag.empty() ? 0.0 : lag.back());
}

int
run(const Options& opt)
{
    namespace fs = std::filesystem;
    const bool paced = opt.workload == "paced";
    const ServiceConfig cfg = serviceConfig();
    Tracer tracer;
    Tracer* tr = opt.trace ? &tracer : nullptr;

    // Set-up, repeated: (paced) populate a cold trace store and map
    // the eight traces; construct the service; one warm-up pass.
    std::vector<double> setup_s;
    std::optional<PredictionService> svc;
    std::optional<vpred::harness::TraceCache> cache;
    std::optional<Replay> replay;
    std::optional<ChurnSource> churn;
    std::vector<std::span<const TraceRecord>> traces;
    const std::uint64_t warmup =
            paced ? kPacedWarmupRecords : kChurnStreams;
    const std::uint64_t records = paced
            ? static_cast<std::uint64_t>(opt.seconds * 1e9 / kBurstNs)
                    * kBurstRecords
            : static_cast<std::uint64_t>(
                      std::max(1.0, std::round(opt.seconds
                                               * kChurnPassesPerSecond)))
                    * kChurnStreams;
    const std::uint64_t total = warmup + records;
    std::optional<std::uint64_t> withhold;
    if (opt.withhold_last)
        withhold = total - 1;
    for (unsigned k = 0; k < kSetups; ++k) {
        svc.reset();
        cache.reset();
        const fs::path store = fs::path(opt.work) / "store";
        fs::remove_all(store);
        const std::uint64_t s0 = nowNs();
        if (paced) {
            fs::create_directories(store);
            cache.emplace(1.0, store.string());
            cache->prewarm(vpred::workloads::benchmarkNames());
            traces.clear();
            for (const std::string& name :
                 vpred::workloads::benchmarkNames())
                traces.push_back(cache->getSpan(name));
            replay.emplace(traces, opt.seed);
        } else {
            churn.emplace(opt.seed, 0);
        }
        svc.emplace(cfg);
        if (paced)
            runSection(*svc, *replay, warmup, false, 0, withhold, nullptr);
        else
            runSection(*svc, *churn, warmup, false, 0, withhold, nullptr);
        const std::uint64_t s1 = nowNs();
        setup_s.push_back(secondsBetween(s0, s1));
        if (tr)
            tr->main.add("service.setup", 0, s0, s1,
                         {"records", static_cast<double>(warmup)});
    }

    // Peak RSS covers the timed section: the service and its load, not
    // the trace generation or the services built by earlier set-ups.
    perfbench::resetPeakRss();
    const auto stats0 = svc->stats();
    const auto ingest0 = svc->ingestStats();
    if (tr)
        tr->section = tr->main.reserveId();
    const auto timed = [&](auto& source) {
        const auto at_start = source;
        Section s = runSection(*svc, source, records, paced, warmup,
                               withhold, tr);
        s.push.generate_ns = generateNs(at_start, records);
        return s;
    };
    const Section sec = paced ? timed(*replay) : timed(*churn);
    if (tr)
        tr->main.addWithId(tr->section,
                           paced ? "service.paced" : "service.churn", 0,
                           sec.start_ns, sec.end_ns,
                           {"records", static_cast<double>(records)});
    const double peak_rss = perfbench::peakRssMib();
    const Latency lat = paced ? pacedLatency(sec) : unpacedLatency(sec);
    const double wall = secondsBetween(sec.start_ns, sec.end_ns);
    const auto stats1 = svc->stats();

    // Oracles. Lost records: pushed (warm-up + timed) but never
    // returned by a pump.
    const std::uint64_t t_check = nowNs();
    const std::uint64_t pushed_total = warmup + sec.push.pushed;
    const std::uint64_t predicted = stats1.predictions;
    const std::uint64_t lost =
            pushed_total > predicted ? pushed_total - predicted : 0;

    // Stream states: regenerate the values the benchmark pushed to each
    // sampled stream (a withheld record included: the service never saw
    // it, so its stream must mismatch).
    Rng pick(opt.seed ^ 0x5eed5eed5eed5eedull);
    std::vector<std::uint64_t> streams;
    std::vector<std::vector<Value>> values;
    if (paced) {
        std::vector<std::uint64_t> at;
        for (unsigned i = 0; i < kPacedSampledStreams; ++i)
            at.push_back(pick.next() % total);
        if (withhold)
            at.push_back(*withhold);
        std::sort(at.begin(), at.end());
        Replay again(traces, opt.seed);
        std::size_t next_at = 0;
        for (std::uint64_t i = 0; i < total && next_at < at.size(); ++i) {
            const std::uint64_t stream = again.next().first;
            for (; next_at < at.size() && at[next_at] == i; ++next_at)
                if (std::find(streams.begin(), streams.end(), stream)
                    == streams.end())
                    streams.push_back(stream);
        }
        values.resize(streams.size());
        Replay third(traces, opt.seed);
        for (std::uint64_t i = 0; i < total; ++i) {
            const auto [stream, value] = third.next();
            const auto it = std::find(streams.begin(), streams.end(), stream);
            if (it != streams.end())
                values[static_cast<std::size_t>(it - streams.begin())]
                        .push_back(value);
        }
    } else {
        for (unsigned i = 0; i < kChurnSampledStreams; ++i)
            streams.push_back(pick.next() % kChurnStreams);
        if (withhold)
            streams.push_back(*withhold % kChurnStreams);
        const std::uint64_t rounds = total / kChurnStreams;
        for (const std::uint64_t s : streams) {
            std::vector<Value>& v = values.emplace_back();
            for (std::uint64_t r = 0; r < rounds; ++r)
                v.push_back(churnValue(opt.seed, s, r));
        }
    }
    const std::uint64_t mismatches =
            stateMismatches(*svc, cfg, streams, values);
    if (tr)
        tr->main.add("service.check", 0, t_check, nowNs(),
                     {"streams", static_cast<double>(streams.size())},
                     {"mismatches", static_cast<double>(mismatches)});

    perfbench::JsonObject layers;
    addSectionLayers(layers, sec);
    const perfbench::JsonObject counters = serviceCounters(
            *svc, stats0, ingest0, sec.pump.drained);

    perfbench::JsonObject out;
    out.str("workload", opt.workload)
            .list("setup_s", setup_s)
            .num("wall_s", wall)
            .num("records", static_cast<double>(records))
            .num("records_per_s", static_cast<double>(records) / wall)
            .num("latency_p50_ms", lat.p50_ms)
            .num("latency_p99_ms", lat.p99_ms)
            .num("latency_whole_run_p99_ms", lat.whole_run_p99_ms)
            .num("latency_samples", static_cast<double>(lat.samples))
            .num("late_bursts", static_cast<double>(lat.late_bursts))
            .num("peak_rss_mib", peak_rss)
            .num("hit_rate",
                 stats1.predictions == 0
                         ? 0.0
                         : static_cast<double>(stats1.correct_col0)
                                 / static_cast<double>(stats1.predictions))
            .num("pushed", static_cast<double>(pushed_total))
            .num("predicted", static_cast<double>(predicted))
            .num("lost", static_cast<double>(lost))
            .num("streams_checked", static_cast<double>(streams.size()))
            .num("state_mismatches", static_cast<double>(mismatches))
            .object("layers", layers)
            .object("counters", counters);
    std::cout << out.text() << std::endl;

    if (tr && !opt.spans.empty()
        && !perfbench::writeSpans(opt.spans,
                                  {&tr->main, &tr->producer, &tr->pump})) {
        std::cerr << "cannot write spans to " << opt.spans << "\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "perfbench_service_bench: " << e.what() << "\n";
        return 1;
    }
}
