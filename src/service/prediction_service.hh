/**
 * @file
 * The always-on sharded prediction service. repro-lint: hot-path
 *
 * Owns one Shard per configured core, routes every (stream, value)
 * update to its owning shard by a mixed hash of the stream id, and
 * pumps all shard queues in parallel on the harness ThreadPool. The
 * service is long-lived: state accumulates across pump() calls
 * (shards feed the fused multi-geometry kernels incrementally), and
 * every stream keeps its own level-1 entry for the service's life,
 * in a per-shard table that doubles as streams arrive, so memory
 * follows the number of distinct streams, not the traffic.
 *
 * Ingest is producer-registered: each producer thread obtains a
 * Producer token (registerProducer()) that names its private SPSC
 * ring in every shard, then tryIngest()s updates lock-free. A full
 * ring is a retriable backpressure status — the producer decides
 * whether to retry, yield or drop, and accounts the wait through
 * noteBlocked() so blocked time is observable instead of folded
 * into ingest-to-predict latency. flush() publishes any partial
 * batch (call it when a producer goes idle so records never
 * strand). Per-stream ordering holds as long as each stream is fed
 * by one producer — the same single-writer discipline the old mutex
 * queue required of callers that cared about order.
 *
 * Snapshots serialize every known stream's relocatable level-1
 * state into a VPT2 container (the PR-3 trace store format): one
 * fixed-size block of TraceRecords per stream, written atomically
 * via TraceStore's temp-file/rename discipline and restored through
 * the zero-copy mmap path.
 *
 * Threading: tryIngest()/flush()/noteBlocked() are hot-path and
 * lock-free; each Producer token must be used by one thread at a
 * time. registerProducer()/unregisterProducer() are cold-path and
 * internally serialized (safe concurrently with ingest and pump).
 * pump() runs drains in parallel (one task per shard — a shard is
 * never drained by two threads at once) and must not run
 * concurrently with itself, snapshots or state queries.
 */

#ifndef DFCM_SERVICE_PREDICTION_SERVICE_HH
#define DFCM_SERVICE_PREDICTION_SERVICE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>  // registration cold path; repro-lint: allow(concurrency)
#include <optional>
#include <string>
#include <vector>

#include "harness/parallel_sweep.hh"
#include "service/shard.hh"

namespace vpred::service
{

/** Aggregate of all shard stats, plus the merged latency view. */
struct ServiceStats
{
    std::uint64_t ingested = 0;
    std::uint64_t predictions = 0;
    /** Always 0: every stream keeps its level-1 entry, so nothing is
     *  evicted or restored. Kept for callers that read it. */
    std::uint64_t evictions = 0;
    std::uint64_t restores = 0;     //!< always 0, see evictions
    /** Streams seen, each owning a level-1 entry in its shard. */
    std::uint64_t resident_streams = 0;
    std::uint64_t spilled_streams = 0;  //!< always 0, see evictions
    /** Correct predictions for the kernels' first level-2 column. */
    std::uint64_t correct_col0 = 0;
    std::uint64_t flushes = 0;  //!< chunks fed (see ShardStats)
    std::uint64_t max_backlog = 0;  //!< max over shards, not summed
    /** Always 0: drains take each ring's backlog at entry, with no
     *  adaptive quota. Kept for callers that read them. */
    std::uint64_t quota_grows = 0;
    std::uint64_t quota_shrinks = 0;  //!< always 0, see quota_grows
};

/** Ingest-fabric counters aggregated across shards and producers. */
struct IngestStats
{
    std::uint64_t producers_registered = 0;  //!< lifetime total
    std::uint64_t producers_active = 0;
    std::uint64_t publishes = 0;         //!< release stores paid
    std::uint64_t published_records = 0; //!< records those covered
    std::uint64_t full_events = 0;       //!< backpressure rejections
    std::uint64_t blocked_events = 0;    //!< noteBlocked() calls
    std::uint64_t blocked_ns = 0;        //!< accounted producer waits
};

/**
 * Move-only token naming one registered producer's rings. Obtained
 * from PredictionService::registerProducer(); a default-constructed
 * or moved-from token is invalid and must not be used to ingest.
 */
class Producer
{
  public:
    Producer() = default;
    Producer(Producer&& other) noexcept : id_(other.id_)
    {
        other.id_ = kInvalid;
    }
    Producer&
    operator=(Producer&& other) noexcept
    {
        id_ = other.id_;
        other.id_ = kInvalid;
        return *this;
    }
    Producer(const Producer&) = delete;
    Producer& operator=(const Producer&) = delete;

    bool valid() const { return id_ != kInvalid; }

  private:
    friend class PredictionService;
    static constexpr std::size_t kInvalid = ~std::size_t{0};
    explicit Producer(std::size_t id) : id_(id) {}
    std::size_t id_ = kInvalid;
};

class PredictionService
{
  public:
    explicit PredictionService(const ServiceConfig& cfg);
    ~PredictionService();

    unsigned shards() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Owning shard of @p stream (stable for the service's life). */
    unsigned
    shardOf(std::uint64_t stream) const
    {
        return static_cast<unsigned>(mixStreamId(stream)
                                     % shards_.size());
    }

    /**
     * Register a producer: allocates one SPSC ring per shard and
     * returns the token naming them. Safe from any thread, including
     * concurrently with ingest and pump.
     * @throws std::length_error once the lifetime cap
     *         (ServiceConfig::max_producers) is reached — ring slots
     *         are never reused, so the cap bounds fabric memory.
     */
    Producer registerProducer();

    /**
     * Flush and retire @p producer's rings. Already-published
     * records keep draining (nothing is lost — safe against a
     * concurrent drain); the token becomes invalid. The ring slots
     * are not reused.
     */
    void unregisterProducer(Producer& producer);

    /**
     * Lock-free producer entry point: append one update to
     * @p producer's ring in the owning shard. Returns false — the
     * retriable backpressure status — when that ring is full; retry
     * after the next pump, or account the wait via noteBlocked().
     */
    [[nodiscard]] bool
    tryIngest(const Producer& producer, std::uint64_t stream,
              Value value, std::uint64_t tick_ns)
    {
        return shards_[shardOf(stream)]->tryEnqueue(
                producer.id_, stream, value, tick_ns);
    }

    /** Publish @p producer's partial batches in every shard — the
     *  flush-on-ingest-idle path. */
    void
    flush(const Producer& producer)
    {
        for (const auto& shard : shards_)
            shard->flushProducer(producer.id_);
    }

    /** Account @p ns of producer-side backpressure wait (shows up in
     *  ingestStats(), distinct from ingest-to-predict latency). */
    void
    noteBlocked(const Producer&, std::uint64_t ns)
    {
        blocked_events_.fetch_add(1, std::memory_order_relaxed);
        blocked_ns_.fetch_add(ns, std::memory_order_relaxed);
    }

    /**
     * Drain every shard's rings once, in parallel on the pool.
     * @p now_ns stamps the latency histogram. Returns total records
     * fed to the kernels by this call.
     * @throws std::length_error when a shard's level-1 table would
     *         have to grow past 2^28 entries.
     */
    std::size_t pump(std::uint64_t now_ns);

    ServiceStats stats() const;
    /** Ingest-fabric counters (safe anytime). */
    IngestStats ingestStats() const;
    /** Merged ingest-to-predict latency across shards. */
    LatencyHistogram latency() const;
    /** Merged per-drain batch-size distribution across shards. */
    LatencyHistogram drainBatchRecords() const;

    /** Per-stream level-1 state; nullopt for a stream never seen.
     *  Quiescent only. */
    std::optional<StreamState> streamState(std::uint64_t stream) const;

    /**
     * Serialize every known stream's state to @p path as a VPT2
     * container (atomic temp-file/rename write). Quiescent only.
     */
    void snapshotTo(const std::string& path) const;

    /**
     * Reinstall stream state from a snapshotTo() file. Geometry must
     * match this service's kernels (initial l1_bits, level-2 column
     * set, value width and hash shift); each stream is installed
     * straight into its entry in its owning shard and resumes on its
     * next update.
     * @throws TraceIoError on a corrupt or mismatched snapshot.
     * @throws std::length_error when a shard's level-1 table would
     *         have to grow past 2^28 entries.
     */
    void restoreFrom(const std::string& path);

  private:
    ServiceConfig cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;
    harness::ThreadPool pool_;

    // Producer registration (cold path, hence the lock).
    std::mutex register_mutex_;  // repro-lint: allow(concurrency)
    /** Incremented under register_mutex_; atomic so ingestStats()
     *  can read it lock-free. */
    std::atomic<std::size_t> next_producer_{0};
    std::atomic<std::uint64_t> active_producers_{0};
    std::atomic<std::uint64_t> blocked_events_{0};
    std::atomic<std::uint64_t> blocked_ns_{0};
};

} // namespace vpred::service

#endif // DFCM_SERVICE_PREDICTION_SERVICE_HH
