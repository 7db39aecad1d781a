// repro-lint: hot-path (pump and the drain fan-out live here; the
// producer-registration lock below is the explicitly-allowed cold
// path)

#include "service/prediction_service.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/trace_io.hh"
#include "harness/trace_store.hh"
#include "workloads/workload.hh"

namespace vpred::service
{

namespace
{

constexpr const char* kSnapshotWorkload = "service-snapshot";

/** Exact kernel geometry as a string, so restore can reject a
 *  snapshot whose column set differs even when SIMD padding makes
 *  the per-stream block length coincide. */
std::string
geometryTag(const ServiceConfig& cfg)
{
    std::string tag = "l1=" + std::to_string(cfg.l1_bits) + ";l2=";
    for (std::size_t i = 0; i < cfg.l2_bits.size(); ++i) {
        if (i != 0)
            tag += ',';
        tag += std::to_string(cfg.l2_bits[i]);
    }
    return tag;
}

unsigned
resolveShards(unsigned configured)
{
    if (configured != 0)
        return configured;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : std::min(hw, 256u);
}

} // namespace

PredictionService::PredictionService(const ServiceConfig& cfg)
    : cfg_(cfg), pool_(resolveShards(cfg.shards))
{
    const unsigned n = resolveShards(cfg.shards);
    shards_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        shards_.push_back(std::make_unique<Shard>(cfg));
}

PredictionService::~PredictionService() = default;

Producer
PredictionService::registerProducer()
{
    // Registration is the cold path: the lock serializes slot
    // assignment only; ingest and pump never take it.
    const std::lock_guard<std::mutex> lock(  // repro-lint: allow(concurrency)
            register_mutex_);
    const std::size_t id =
            next_producer_.load(std::memory_order_relaxed);
    if (id >= cfg_.max_producers)
        throw std::length_error(
                "producer limit reached (REPRO_SERVICE_RING_PRODUCERS="
                + std::to_string(cfg_.max_producers)
                + "); ring slots are never reused");
    next_producer_.store(id + 1, std::memory_order_relaxed);
    for (const auto& shard : shards_)
        shard->addProducerRing(id);
    active_producers_.fetch_add(1, std::memory_order_relaxed);
    return Producer(id);
}

void
PredictionService::unregisterProducer(Producer& producer)
{
    if (!producer.valid())
        return;
    // Publish any partial batches so nothing strands, then retire
    // the token. The rings stay sweepable — a drain running right
    // now (or later) still consumes every published record.
    flush(producer);
    producer.id_ = Producer::kInvalid;
    active_producers_.fetch_sub(1, std::memory_order_relaxed);
}

std::size_t
PredictionService::pump(std::uint64_t now_ns)
{
    std::vector<std::size_t> drained(shards_.size(), 0);
    pool_.parallelFor(shards_.size(), [&](std::size_t i) {
        drained[i] = shards_[i]->drain(now_ns);
    });
    std::size_t total = 0;
    for (const std::size_t d : drained)
        total += d;
    return total;
}

ServiceStats
PredictionService::stats() const
{
    ServiceStats agg;
    for (const auto& shard : shards_) {
        const ShardStats& s = shard->stats();
        agg.ingested += s.ingested;
        agg.predictions += s.predictions;
        agg.evictions += s.evictions;
        agg.restores += s.restores;
        if (!s.correct.empty())
            agg.correct_col0 += s.correct[0];
        agg.flushes += s.flushes;
        agg.max_backlog = std::max(agg.max_backlog, s.max_backlog);
        agg.quota_grows += s.quota_grows;
        agg.quota_shrinks += s.quota_shrinks;
        agg.resident_streams += shard->residentStreams();
        agg.spilled_streams += shard->spilledStreams();
    }
    return agg;
}

IngestStats
PredictionService::ingestStats() const
{
    IngestStats agg;
    agg.producers_registered =
            next_producer_.load(std::memory_order_relaxed);
    agg.producers_active =
            active_producers_.load(std::memory_order_relaxed);
    for (const auto& shard : shards_) {
        const RingCounters c = shard->ringCounters();
        agg.publishes += c.publishes;
        agg.published_records += c.published_records;
        agg.full_events += c.full_events;
    }
    agg.blocked_events =
            blocked_events_.load(std::memory_order_relaxed);
    agg.blocked_ns = blocked_ns_.load(std::memory_order_relaxed);
    return agg;
}

LatencyHistogram
PredictionService::latency() const
{
    LatencyHistogram merged;
    for (const auto& shard : shards_)
        merged.merge(shard->latency());
    return merged;
}

LatencyHistogram
PredictionService::drainBatchRecords() const
{
    LatencyHistogram merged;
    for (const auto& shard : shards_)
        merged.merge(shard->drainBatchRecords());
    return merged;
}

std::optional<StreamState>
PredictionService::streamState(std::uint64_t stream) const
{
    return shards_[shardOf(stream)]->streamState(stream);
}

void
PredictionService::snapshotTo(const std::string& path) const
{
    ValueTrace blocks;
    for (const auto& shard : shards_)
        shard->appendSnapshot(blocks);

    Vpt2Meta meta;
    meta.workload = kSnapshotWorkload;
    // The block length rides in the scale field so restore can
    // validate geometry before touching a record.
    meta.scale = static_cast<double>(shards_[0]->blockRecords());
    meta.generator_version = workloads::kTraceGeneratorVersion;
    meta.instructions = blocks.size() / shards_[0]->blockRecords();
    meta.output = geometryTag(cfg_);

    // Same atomic discipline as the trace store: temp file in the
    // target directory, then rename — a snapshot is always either
    // absent or complete.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::out | std::ios::binary
                                       | std::ios::trunc);
        if (!out)
            throw TraceIoError("cannot open " + tmp + " for writing");
        writeTraceVpt2(out, blocks, meta);
        out.flush();
        if (!out)
            throw TraceIoError("short write to " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::error_code ec2;
        std::filesystem::remove(tmp, ec2);
        throw TraceIoError("cannot install snapshot " + path + ": "
                           + ec.message());
    }
}

void
PredictionService::restoreFrom(const std::string& path)
{
    const harness::MappedTrace mapped =
            harness::TraceStore::mapFile(path);
    const std::size_t block = shards_[0]->blockRecords();
    if (mapped.meta().workload != kSnapshotWorkload
        || mapped.meta().scale != static_cast<double>(block)
        || mapped.meta().output != geometryTag(cfg_))
        throw TraceIoError("not a service snapshot with this geometry: "
                           + path);
    const std::span<const TraceRecord> recs = mapped.records();
    if (recs.size() % block != 0)
        throw TraceIoError("snapshot record count is not a whole"
                           " number of stream blocks: "
                           + path);

    StreamState state;
    state.hists.resize(block - 1);
    for (std::size_t off = 0; off < recs.size(); off += block) {
        const std::uint64_t stream = recs[off].pc;
        state.last = recs[off].value;
        for (std::size_t c = 1; c < block; ++c) {
            if (recs[off + c].pc != stream)
                throw TraceIoError("torn stream block in snapshot "
                                   + path);
            state.hists[c - 1] =
                    static_cast<std::uint32_t>(recs[off + c].value);
        }
        shards_[shardOf(stream)]->installStream(stream, state);
    }
}

} // namespace vpred::service
