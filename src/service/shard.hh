/**
 * @file
 * One shard of the always-on prediction service. repro-lint: hot-path
 *
 * A shard exclusively owns the predictor state for its slice of the
 * stream-id space: a MultiGeomDfcmKernel whose level-1 table is the
 * per-stream store, and a SlotMap directory giving every stream a
 * dense, permanent level-1 entry on its first arrival. As in the
 * paper, each stream (instruction) owns its level-1 entry — last
 * value plus hashed stride histories — and only the level-2 tables
 * are shared. When the directory fills the level-1 table, the table
 * doubles (MultiGeomDfcmKernel::growEntries); ServiceConfig::l1_bits
 * is only its initial size.
 *
 * Ingest is a lock-free fabric: each registered producer owns one
 * bounded SPSC ring into this shard (see spsc_ring.hh for the
 * memory-order argument). Producers tryEnqueue() into their ring —
 * ring-full is a retriable backpressure status, never a blocked
 * thread — and the shard's pump thread drain()s every ring: it pops
 * a chunk of records, looks each stream up in the directory, and
 * feeds the chunk through the kernel's plain feedTrace() in arrival
 * order — so the shard's level-2 tables, and with them its hit
 * counts, see exactly the order in which the rings delivered the
 * records, no matter where drains and chunks cut the batches.
 *
 * Concurrency contract: tryEnqueue()/flushProducer() are safe from
 * the owning producer's thread concurrently with everything;
 * addProducerRing() publishes new rings to a running drain via an
 * acquire/release count. drain(), snapshots and state queries must
 * be externally serialized (PredictionService runs one drain per
 * shard at a time and snapshots only a quiescent service).
 *
 * Determinism contract: a stream's exported level-1 state depends
 * only on that stream's own value sequence — never on which shard it
 * lives in, which entry it occupies, which producer ring carried it,
 * or which other streams share the kernel — so it is invariant
 * across shard counts, ring capacities, producer counts and table
 * growth. (Shared level-2 tables are deliberately outside the
 * contract: level-2 hit rates legitimately vary with co-residency,
 * exactly like aliasing in the paper's shared tables.)
 */

#ifndef DFCM_SERVICE_SHARD_HH
#define DFCM_SERVICE_SHARD_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/multi_geom.hh"
#include "core/types.hh"
#include "service/latency_histogram.hh"
#include "service/service_config.hh"
#include "service/slot_map.hh"
#include "service/spsc_ring.hh"

namespace vpred::service
{

/** The relocatable per-stream level-1 state: one hashed-history lane
 *  per kernel column (padded bank, exported verbatim) plus the DFCM
 *  last value. This is exactly what a snapshot block carries. */
struct StreamState
{
    std::vector<std::uint32_t> hists;
    Value last = 0;

    bool operator==(const StreamState&) const = default;
};

struct ShardStats
{
    std::uint64_t ingested = 0;     //!< updates swept from the rings
    std::uint64_t predictions = 0;  //!< records fed to the kernel
    std::uint64_t max_backlog = 0;  //!< deepest summed ring occupancy
                                    //!< seen at drain entry
    std::uint64_t flushes = 0;      //!< chunks fed to the kernel
    /** Correct predictions per kernel column. */
    std::vector<std::uint64_t> correct;
};

class Shard
{
  public:
    explicit Shard(const ServiceConfig& cfg);

    /**
     * Create the SPSC ring for producer @p producer (a dense index
     * assigned by PredictionService). Serialized by the service's
     * registration lock; safe against a concurrent drain() — the
     * ring becomes sweepable only after the release-store of the
     * ring count. Each producer index is registered exactly once.
     */
    void addProducerRing(std::size_t producer);

    /**
     * Producer entry point: append one update to @p producer's ring.
     * Owning producer thread only. Returns false — retriable
     * backpressure — when the ring is full; everything pending is
     * published before the rejection, so a retry after the next
     * drain can succeed.
     */
    [[nodiscard]] bool
    tryEnqueue(std::size_t producer, std::uint64_t stream, Value value,
               std::uint64_t tick_ns)
    {
        return rings_[producer]->tryPush({stream, value, tick_ns});
    }

    /** Publish @p producer's pending records (flush-on-ingest-idle).
     *  Owning producer thread only. */
    void
    flushProducer(std::size_t producer)
    {
        rings_[producer]->publish();
    }

    /**
     * Feed every record published to the producer rings at entry
     * through the kernel; pump thread only. @p now_ns is the drain
     * timestamp used for the latency histogram (publish-to-drain).
     * Returns records fed.
     * @throws std::length_error when a new stream would grow the
     *         level-1 table past its 2^28-entry cap.
     */
    std::size_t drain(std::uint64_t now_ns);

    /** Streams this shard has seen: each owns a level-1 entry. */
    std::size_t residentStreams() const { return map_.size(); }

    const ShardStats& stats() const { return stats_; }
    /** Aggregate producer-side ring counters (safe anytime). */
    RingCounters ringCounters() const;
    const LatencyHistogram& latency() const { return latency_; }
    /** Per-drain batch-size distribution (records per drain() call
     *  that moved at least one record). */
    const LatencyHistogram& drainBatchRecords() const
    {
        return drain_batch_records_;
    }

    /**
     * The level-1 state of @p stream; nullopt for a stream this
     * shard has never seen. Quiescent only.
     */
    std::optional<StreamState> streamState(std::uint64_t stream) const;

    /**
     * Append one fixed-size block per known stream to @p out for a
     * VPT2 snapshot: {pc=stream, value=last} followed by one
     * {pc=stream, value=hist lane} record per padded kernel column.
     * Quiescent only; streams in first-arrival order.
     */
    void appendSnapshot(ValueTrace& out) const;

    /** Snapshot block length in records: 1 + paddedColumns(). */
    std::size_t blockRecords() const
    {
        return 1 + kernel_.paddedColumns();
    }

    /**
     * Install @p state for @p stream (the restore path): the stream
     * is admitted to its entry, or keeps the one it has, and the
     * state overwrites the entry's. Quiescent only.
     */
    void installStream(std::uint64_t stream, const StreamState& state);

  private:
    /** Look up every record of pending_ in the directory and feed
     *  the chunk to the kernel in arrival order. */
    void feedChunk(std::uint64_t now_ns,
                   LatencyHistogram& drain_latency);
    /** @p stream's level-1 entry, assigned (growing the kernel when
     *  the table is full) on first arrival. */
    std::uint32_t admit(std::uint64_t stream);

    MultiGeomDfcmKernel kernel_;
    /** The directory: stream id -> level-1 entry, and its inverse
     *  (entry -> stream id, in first-arrival order). */
    SlotMap map_;
    std::vector<std::uint64_t> entry_stream_;

    // Ingest fabric: one SPSC ring per registered producer, slots
    // pre-allocated to the lifetime cap so the array itself is never
    // resized. ring_count_ publishes construction to the drain
    // thread (release on add, acquire at sweep).
    std::vector<std::unique_ptr<SpscRing>> rings_;
    std::atomic<std::size_t> ring_count_{0};
    std::size_t ring_capacity_;
    std::size_t publish_batch_;

    std::vector<Update> pending_;  //!< drain-side pop target
    std::vector<std::size_t> ring_take_; //!< per-ring drain snapshot
    ValueTrace batch_;             //!< pending_ as kernel records

    ShardStats stats_;
    LatencyHistogram latency_;
    LatencyHistogram drain_batch_records_;
};

} // namespace vpred::service

#endif // DFCM_SERVICE_SHARD_HH
