/**
 * @file
 * Configuration for the always-on prediction service.
 *
 * All knobs come from REPRO_SERVICE_* environment variables, parsed
 * through core/env_util.hh from day one: unset or empty selects the
 * default, a malformed or out-of-range value is a loud exit(2) —
 * never a silent fallback.
 */

#ifndef DFCM_SERVICE_SERVICE_CONFIG_HH
#define DFCM_SERVICE_SERVICE_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vpred::service
{

/**
 * Geometry and sizing of one PredictionService instance.
 *
 * The kernel geometry (l1_bits per shard, the l2_bits column,
 * value/stride widths, FS R-k shift) is program-chosen, not an env
 * knob: it is the experiment under test. The deployment knobs —
 * shard count, ingest-fabric sizing, adaptive-drain bounds — are
 * environment-driven.
 */
struct ServiceConfig
{
    /** Shards (state-owning cores). 0 = one per hardware thread. */
    unsigned shards = 0;
    /** log2(resident streams per shard): each shard's kernel owns
     *  2^l1_bits level-1 entries; colder streams are spilled. */
    unsigned l1_bits = 14;
    /** Level-2 sizes evaluated per stream (one kernel column each). */
    std::vector<unsigned> l2_bits = {12};
    unsigned value_bits = 32;
    unsigned stride_bits = 32;
    unsigned hash_shift = 5;
    /** Initial reservation for the drain-side staging vectors. */
    std::size_t batch_records = 1024;

    // Lock-free ingest fabric (one SPSC ring per producer per shard).
    /** Slots per ring; must be a power of two. */
    std::size_t ring_capacity = 4096;
    /** Records a producer accumulates per release-store publish;
     *  flush-on-idle covers the remainder. */
    std::size_t publish_batch = 32;
    /** Lifetime cap on registered producers (ring slots are never
     *  reused, so this bounds fabric memory). */
    unsigned max_producers = 16;
    /** Adaptive sweep quota bounds: drain() doubles its per-call
     *  record quota while rings run hot and halves it when the
     *  per-drain ingest-to-predict p99 exceeds the SLO. */
    std::size_t sweep_quota_min = 4096;
    std::size_t sweep_quota_max = std::size_t{1} << 20;
    /** Per-drain p99 ingest-to-predict SLO driving quota shrink. */
    std::uint64_t drain_slo_ns = 50'000'000;

    /**
     * Defaults overridden by the environment:
     *   REPRO_SERVICE_SHARDS          shard count, 0 = hardware
     *                                 threads (0..256)
     *   REPRO_SERVICE_BATCH           staging reservation (1..2^20)
     *   REPRO_SERVICE_RING_CAP        ring slots, power of two
     *                                 (2..2^20)
     *   REPRO_SERVICE_RING_PUBLISH    publish batch
     *                                 (1..ring_capacity)
     *   REPRO_SERVICE_RING_PRODUCERS  producer cap (1..1024)
     *   REPRO_SERVICE_RING_QUOTA_MIN  sweep quota floor (64..2^24)
     *   REPRO_SERVICE_RING_QUOTA_MAX  sweep quota ceiling
     *                                 (quota_min..2^24)
     *   REPRO_SERVICE_RING_SLO_NS     drain p99 SLO (1..10^12)
     * Malformed or out-of-range values are fatal (exit 2).
     * Resolution of shards=0 happens in PredictionService, so a
     * config round-trips unchanged.
     */
    static ServiceConfig fromEnv();
};

} // namespace vpred::service

#endif // DFCM_SERVICE_SERVICE_CONFIG_HH
