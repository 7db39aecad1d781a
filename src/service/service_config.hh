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
 * shard count and ingest-fabric sizing — are environment-driven.
 */
struct ServiceConfig
{
    /** Shards (state-owning cores). 0 = one per hardware thread. */
    unsigned shards = 0;
    /** log2 of each shard's initial level-1 table: every stream owns
     *  an entry, and the table doubles whenever it fills. */
    unsigned l1_bits = 14;
    /** Level-2 sizes evaluated per stream (one kernel column each). */
    std::vector<unsigned> l2_bits = {12};
    unsigned value_bits = 32;
    unsigned stride_bits = 32;
    unsigned hash_shift = 5;

    // Lock-free ingest fabric (one SPSC ring per producer per shard).
    /** Slots per ring; must be a power of two. */
    std::size_t ring_capacity = 4096;
    /** Records a producer accumulates per release-store publish;
     *  flush-on-idle covers the remainder. */
    std::size_t publish_batch = 32;
    /** Lifetime cap on registered producers (ring slots are never
     *  reused, so this bounds fabric memory). */
    unsigned max_producers = 16;

    /**
     * Defaults overridden by the environment:
     *   REPRO_SERVICE_SHARDS          shard count, 0 = hardware
     *                                 threads (0..256)
     *   REPRO_SERVICE_RING_CAP        ring slots, power of two
     *                                 (2..2^20)
     *   REPRO_SERVICE_RING_PUBLISH    publish batch
     *                                 (1..ring_capacity)
     *   REPRO_SERVICE_RING_PRODUCERS  producer cap (1..1024)
     * Malformed or out-of-range values are fatal (exit 2).
     * Resolution of shards=0 happens in PredictionService, so a
     * config round-trips unchanged.
     */
    static ServiceConfig fromEnv();
};

} // namespace vpred::service

#endif // DFCM_SERVICE_SERVICE_CONFIG_HH
