// repro-lint: hot-path (the drain sweep and admit loop live here)

#include "service/shard.hh"

#include <algorithm>
#include <cassert>
#include <span>

namespace vpred::service
{

namespace
{

MultiGeomConfig
kernelConfig(const ServiceConfig& cfg)
{
    MultiGeomConfig kc;
    kc.l1_bits = cfg.l1_bits;
    kc.value_bits = cfg.value_bits;
    kc.stride_bits = cfg.stride_bits;
    kc.hash_shift = cfg.hash_shift;
    kc.l2_bits = cfg.l2_bits;
    return kc;
}

/** Records popped and fed per kernel call: the staging buffers stay
 *  L2-resident however deep the rings are, and ring slots free up
 *  incrementally, so a blocked producer can resume mid-drain. */
constexpr std::size_t kChunk = 8192;

} // namespace

Shard::Shard(const ServiceConfig& cfg)
    : kernel_(kernelConfig(cfg)), map_(kernel_.l1Entries()),
      rings_(cfg.max_producers), ring_capacity_(cfg.ring_capacity),
      publish_batch_(cfg.publish_batch)
{
    stats_.correct.assign(kernel_.columns(), 0);
    entry_stream_.reserve(kernel_.l1Entries());
    pending_.reserve(kChunk);
    batch_.reserve(kChunk);
    ring_take_.assign(cfg.max_producers, 0);
}

void
Shard::addProducerRing(std::size_t producer)
{
    assert(producer < rings_.size());
    assert(rings_[producer] == nullptr);
    assert(producer == ring_count_.load(std::memory_order_relaxed));
    rings_[producer] =
            std::make_unique<SpscRing>(ring_capacity_, publish_batch_);
    // The release store pairs with drain()'s acquire load: a sweep
    // that sees the new count sees a fully constructed ring.
    ring_count_.store(producer + 1, std::memory_order_release);
}

RingCounters
Shard::ringCounters() const
{
    RingCounters agg;
    const std::size_t n = ring_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
        const RingCounters c = rings_[i]->counters();
        agg.publishes += c.publishes;
        agg.published_records += c.published_records;
        agg.full_events += c.full_events;
    }
    return agg;
}

std::size_t
Shard::drain(std::uint64_t now_ns)
{
    const std::size_t n = ring_count_.load(std::memory_order_acquire);
    if (n == 0)
        return 0;

    // Snapshot the per-ring backlog once: this drain takes at most
    // what was already published at entry — never more than the ring
    // capacity per ring — so every record it admits was stamped
    // before now_ns and the latency histogram stays truthful.
    // Records published while we drain wait for the next pump, which
    // also bounds the drain against a producer that can refill as
    // fast as we sweep.
    std::size_t backlog = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ring_take_[i] = rings_[i]->occupancy();
        backlog += ring_take_[i];
    }
    stats_.max_backlog = std::max(stats_.max_backlog,
                                  std::uint64_t{backlog});

    LatencyHistogram drain_latency;
    std::size_t drained = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t take = ring_take_[i]; take > 0;) {
            pending_.clear();
            const std::size_t got = rings_[i]->popInto(
                    pending_, std::min(kChunk, take));
            if (got == 0)
                break;  // defensive: the snapshot says it's there
            feedChunk(now_ns, drain_latency);
            drained += got;
            take -= got;
        }
    }
    if (drained == 0)
        return 0;
    stats_.ingested += drained;
    drain_batch_records_.record(drained);
    latency_.merge(drain_latency);
    return drained;
}

void
Shard::feedChunk(std::uint64_t now_ns, LatencyHistogram& drain_latency)
{
    // How far ahead of the admit loop to prefetch the directory's
    // home bucket: enough outstanding loads to cover a DRAM round
    // trip once the directory outgrows the cache.
    constexpr std::size_t kAhead = 12;
    batch_.clear();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (i + kAhead < pending_.size())
            map_.prefetch(pending_[i + kAhead].stream);
        const Update& u = pending_[i];
        batch_.push_back({Pc{admit(u.stream)}, u.value});
        drain_latency.record(now_ns > u.tick_ns ? now_ns - u.tick_ns
                                                : 0);
    }
    const std::vector<PredictorStats> s = kernel_.feedTrace(batch_);
    for (std::size_t c = 0; c < s.size(); ++c)
        stats_.correct[c] += s[c].correct;
    stats_.predictions += batch_.size();
    stats_.flushes += 1;
}

std::uint32_t
Shard::admit(std::uint64_t stream)
{
    if (const auto entry = map_.find(stream))
        return *entry;
    // First arrival: the next dense entry, which starts at power-on
    // zeros — either never fed, or fresh from growEntries(). The
    // growth throws before anything changes if it would pass the
    // kernel's cap, so the directory never names a missing entry.
    const std::size_t entry = entry_stream_.size();
    kernel_.growEntries(entry + 1);
    [[maybe_unused]] const bool inserted =
            map_.insert(stream, static_cast<std::uint32_t>(entry));
    assert(inserted);  // find() above proved the key absent
    entry_stream_.push_back(stream);
    return static_cast<std::uint32_t>(entry);
}

std::optional<StreamState>
Shard::streamState(std::uint64_t stream) const
{
    const auto entry = map_.find(stream);
    if (!entry)
        return std::nullopt;
    const std::span<const std::uint32_t> bank = kernel_.entryHists(*entry);
    return StreamState{{bank.begin(), bank.end()},
                       kernel_.lastValue(*entry)};
}

void
Shard::appendSnapshot(ValueTrace& out) const
{
    for (std::size_t entry = 0; entry < entry_stream_.size(); ++entry) {
        const std::uint64_t stream = entry_stream_[entry];
        out.push_back({stream, kernel_.lastValue(entry)});
        for (const std::uint32_t h : kernel_.entryHists(entry))
            out.push_back({stream, Value{h}});
    }
}

void
Shard::installStream(std::uint64_t stream, const StreamState& state)
{
    assert(state.hists.size() == kernel_.paddedColumns());
    const std::uint32_t entry = admit(stream);
    kernel_.setEntryHists(entry, state.hists);
    kernel_.setLastValue(entry, state.last);
}

} // namespace vpred::service
