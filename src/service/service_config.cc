#include "service/service_config.hh"

#include <algorithm>

#include "core/env_util.hh"

namespace vpred::service
{

ServiceConfig
ServiceConfig::fromEnv()
{
    ServiceConfig cfg;
    cfg.shards = static_cast<unsigned>(
            envUIntOr("REPRO_SERVICE_SHARDS", cfg.shards, 0, 256));

    cfg.ring_capacity = envUIntOr("REPRO_SERVICE_RING_CAP",
                                  cfg.ring_capacity, 2,
                                  std::size_t{1} << 20);
    if ((cfg.ring_capacity & (cfg.ring_capacity - 1)) != 0)
        envUsageError("REPRO_SERVICE_RING_CAP",
                      std::to_string(cfg.ring_capacity),
                      "a power of two");
    // The upper bound depends on the (possibly env-set) capacity, so
    // a publish batch that cannot fit in the ring is rejected with
    // the real limit in the message.
    cfg.publish_batch = envUIntOr("REPRO_SERVICE_RING_PUBLISH",
                                  std::min(cfg.publish_batch,
                                           cfg.ring_capacity),
                                  1, cfg.ring_capacity);
    cfg.max_producers = static_cast<unsigned>(
            envUIntOr("REPRO_SERVICE_RING_PRODUCERS",
                      cfg.max_producers, 1, 1024));
    return cfg;
}

} // namespace vpred::service
