// repro-lint: hot-path (the drain sweep and admit loop live here)

#include "service/shard.hh"

#include <algorithm>
#include <cassert>

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

constexpr std::uint32_t kNoSpill = ~std::uint32_t{0};

} // namespace

Shard::Shard(const ServiceConfig& cfg)
    : kernel_(kernelConfig(cfg)), capacity_(kernel_.l1Entries()),
      map_(capacity_), slot_stream_(capacity_, 0),
      slot_epoch_(capacity_, 0), slot_spill_(capacity_, kNoSpill),
      flush_threshold_(std::max<std::size_t>(1, capacity_ / 2)),
      spill_index_(16), rings_(cfg.max_producers),
      ring_capacity_(cfg.ring_capacity),
      publish_batch_(cfg.publish_batch),
      sweep_quota_(cfg.sweep_quota_min),
      sweep_quota_min_(cfg.sweep_quota_min),
      sweep_quota_max_(cfg.sweep_quota_max),
      drain_slo_ns_(cfg.drain_slo_ns)
{
    stats_.correct.assign(kernel_.columns(), 0);
    batch_.reserve(cfg.batch_records);
    pending_.reserve(std::max(cfg.batch_records, sweep_quota_min_));
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
    // what was already published at entry, so every record it admits
    // was stamped before now_ns and the latency histogram stays
    // truthful. Records published while we drain wait for the next
    // pump — that also bounds the drain against a producer that can
    // refill as fast as we sweep.
    std::size_t backlog = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ring_take_[i] = rings_[i]->occupancy();
        backlog += ring_take_[i];
    }
    stats_.max_backlog = std::max(stats_.max_backlog,
                                  std::uint64_t{backlog});

    // Sweep the snapshot, bounded by the adaptive quota. Records
    // move in kChunk pops: the staging buffer stays L2-resident
    // however large the quota grows, and ring slots are freed
    // incrementally instead of only after the whole sweep, so a
    // blocked producer can resume mid-drain.
    constexpr std::size_t kChunk = 8192;
    const std::size_t quota = sweep_quota_;
    LatencyHistogram drain_latency;
    std::size_t drained = 0;
    for (std::size_t i = 0; i < n && drained < quota; ++i) {
        std::size_t take = std::min(ring_take_[i], quota - drained);
        while (take > 0) {
            pending_.clear();
            const std::size_t got = rings_[i]->popInto(
                    pending_, std::min(kChunk, take));
            if (got == 0)
                break;  // defensive: the snapshot says it's there
            admitRange(now_ns, drain_latency);
            drained += got;
            take -= got;
        }
    }
    if (drained == 0)
        return 0;
    stats_.ingested += drained;
    flushBatch();
    pending_.clear();
    drain_batch_records_.record(drained);
    latency_.merge(drain_latency);

    // Adaptive quota: shrink when this drain's p99 busts the SLO
    // (shed work to producers as accounted backpressure), else grow
    // while the rings run hot — quota exhausted, or backlog still
    // published behind us. Shrink deliberately wins over grow.
    bool hot = drained >= quota;
    for (std::size_t i = 0; !hot && i < n; ++i)
        hot = rings_[i]->occupancy() > 0;
    if (drain_latency.quantileNs(0.99) > drain_slo_ns_) {
        if (sweep_quota_ > sweep_quota_min_) {
            sweep_quota_ = std::max(sweep_quota_min_, sweep_quota_ / 2);
            ++stats_.quota_shrinks;
        }
    } else if (hot && sweep_quota_ < sweep_quota_max_) {
        sweep_quota_ = std::min(sweep_quota_max_, sweep_quota_ * 2);
        ++stats_.quota_grows;
    }
    return drained;
}

void
Shard::admitRange(std::uint64_t now_ns, LatencyHistogram& drain_latency)
{
    // How far ahead of the admit loop to prefetch the two map home
    // buckets: enough outstanding loads to cover a DRAM round trip.
    constexpr std::size_t kAhead = 12;
    // Second prefetch stage, closer in: by the time a record is
    // kBank away its spill-index bucket (prefetched at kAhead) is
    // cached, so probing it is cheap — and the probe yields the
    // record's spill *bank*, the paddedColumns() block a restore
    // will copy out of spill_hists_. That bank is a cold DRAM line
    // in an array of millions of banks; without this stage every
    // restore of a returning stream eats the full round trip.
    constexpr std::size_t kBank = 6;
    const std::size_t pn = kernel_.paddedColumns();
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const Update& u = pending_[i];
        if (i + kAhead < pending_.size()) {
            map_.prefetch(pending_[i + kAhead].stream);
            spill_index_.prefetch(pending_[i + kAhead].stream);
        }
        if (i + kBank < pending_.size()) {
            if (const auto sp = spill_index_.find(
                        pending_[i + kBank].stream)) {
                __builtin_prefetch(&spill_hists_[*sp * pn]);
                __builtin_prefetch(&spill_last_[*sp]);
            }
            // The eviction the admit below this one will run takes
            // roughly the next clock slot, and spills into that
            // slot's cached spill bank — pull the line in for
            // writing. The guess is approximate (the scan skips
            // staged slots); a miss just wastes one hint.
            const std::size_t guess =
                    (hand_ + kBank) & (capacity_ - 1);
            const std::uint32_t gs = slot_spill_[guess];
            if (gs != kNoSpill) {
                __builtin_prefetch(&spill_hists_[gs * pn], 1);
                __builtin_prefetch(&spill_last_[gs], 1);
            }
        }
        // Segment boundary: cut the batch *here*, between updates,
        // rather than inside admit() — eviction then only ever sees
        // fully-flushed slots, and the kernel still receives large
        // batches even when every admission evicts.
        if (staged_streams_ >= flush_threshold_)
            flushBatch();
        const std::uint32_t slot = admit(u.stream);
        if (slot_epoch_[slot] != epoch_) {
            slot_epoch_[slot] = epoch_;
            ++staged_streams_;
        }
        batch_.push_back({Pc{slot}, u.value});
        drain_latency.record(now_ns > u.tick_ns ? now_ns - u.tick_ns
                                                : 0);
    }
}

std::uint32_t
Shard::admit(std::uint64_t stream)
{
    if (const auto slot = map_.find(stream))
        return *slot;

    std::uint32_t slot;
    if (next_unused_ < capacity_) {
        slot = static_cast<std::uint32_t>(next_unused_++);
    } else {
        // The victim is guaranteed un-staged (evictOne() skips slots
        // touched this segment), so its kernel state is current and
        // spills bit-identically without flushing first.
        slot = evictOne();
    }
    [[maybe_unused]] const bool inserted = map_.insert(stream, slot);
    assert(inserted);  // find() above proved the key absent
    slot_stream_[slot] = stream;

    if (const auto spill = spill_index_.find(stream)) {
        // A returning cold stream: reinstall its spilled level-1
        // state bit-identically.
        const std::size_t pn = kernel_.paddedColumns();
        const std::uint32_t* bank = &spill_hists_[*spill * pn];
        kernel_.setEntryHists(slot, {bank, pn});
        kernel_.setLastValue(slot, spill_last_[*spill]);
        slot_spill_[slot] = *spill;
        ++stats_.restores;
    } else {
        kernel_.clearEntry(slot);
        slot_spill_[slot] = kNoSpill;
    }
    return slot;
}

void
Shard::flushBatch()
{
    if (batch_.empty())
        return;
    const std::vector<PredictorStats> s = kernel_.feedTrace(batch_);
    for (std::size_t c = 0; c < s.size(); ++c)
        stats_.correct[c] += s[c].correct;
    stats_.predictions += batch_.size();
    stats_.flushes += 1;
    batch_.clear();
    staged_streams_ = 0;
    ++epoch_;
}

std::uint32_t
Shard::evictOne()
{
    // Clock scan from the hand: consider the first kWindow slots
    // that are *not* staged in the current segment (those still have
    // records in batch_, so their kernel state is stale) and evict
    // the least recently touched. The flush threshold caps staged
    // slots at half the table, so a candidate always exists within
    // one lap; the flush-and-retry is a defensive backstop only.
    constexpr std::size_t kWindow = 8;
    std::size_t victim = capacity_;
    std::uint64_t best = ~std::uint64_t{0};
    std::size_t considered = 0;
    for (std::size_t i = 0; i < capacity_ && considered < kWindow;
         ++i) {
        const std::size_t s = (hand_ + i) & (capacity_ - 1);
        if (slot_epoch_[s] == epoch_)
            continue;  // staged this segment
        ++considered;
        if (slot_epoch_[s] < best) {
            best = slot_epoch_[s];
            victim = s;
        }
    }
    if (victim == capacity_) {
        flushBatch();
        return evictOne();
    }
    hand_ = (victim + 1) & (capacity_ - 1);

    const std::uint64_t stream = slot_stream_[victim];
    // admit() cached the stream's spill slot on entry, so at steady
    // state (every stream spilled at least once) eviction never
    // probes the big spill index.
    std::uint32_t spill_slot = slot_spill_[victim];
    if (spill_slot == kNoSpill)
        spill_slot = spillSlotFor(stream);
    spillTo(spill_slot, static_cast<std::uint32_t>(victim));

    [[maybe_unused]] const bool erased = map_.erase(stream);
    assert(erased);  // the victim slot always has a resident stream
    // No clearEntry here: admit() always overwrites the victim's
    // kernel state — a restore installs the returning stream's bank,
    // and the cold-miss path clears it — so clearing now would just
    // write the bank twice.
    ++stats_.evictions;
    return static_cast<std::uint32_t>(victim);
}

std::uint32_t
Shard::spillSlotFor(std::uint64_t stream)
{
    if (const auto existing = spill_index_.find(stream))
        return *existing;
    const auto spill_slot =
            static_cast<std::uint32_t>(spill_last_.size());
    spill_hists_.resize(spill_hists_.size() + kernel_.paddedColumns());
    // New slot, zeroed. Sized from the 32-bit slot rather than
    // size() + 1, which GCC 12 misreads as a possible wrap into
    // TableBuffer's shrink path (-Wstringop-overflow under -Werror).
    spill_last_.resize(spill_slot + std::size_t{1});
    spill_streams_.push_back(stream);
    [[maybe_unused]] const bool fresh =
            spill_index_.insert(stream, spill_slot);
    assert(fresh);  // find() above proved the stream never spilled
    return spill_slot;
}

void
Shard::spillTo(std::uint32_t spill_slot, std::uint32_t kernel_slot)
{
    const std::size_t pn = kernel_.paddedColumns();
    const std::span<const std::uint32_t> bank =
            kernel_.entryHists(kernel_slot);
    std::copy(bank.begin(), bank.end(),
              spill_hists_.begin()
                      + static_cast<std::ptrdiff_t>(spill_slot * pn));
    spill_last_[spill_slot] = kernel_.lastValue(kernel_slot);
}

std::size_t
Shard::spilledStreams() const
{
    // Streams with a spill slot but no kernel slot — a resident
    // stream's spill copy is stale by definition.
    std::size_t n = 0;
    for (const std::uint64_t stream : spill_streams_)
        if (!map_.find(stream).has_value())
            ++n;
    return n;
}

std::optional<StreamState>
Shard::streamState(std::uint64_t stream) const
{
    StreamState st;
    const std::size_t pn = kernel_.paddedColumns();
    if (const auto slot = map_.find(stream)) {
        const std::span<const std::uint32_t> bank =
                kernel_.entryHists(*slot);
        st.hists.assign(bank.begin(), bank.end());
        st.last = kernel_.lastValue(*slot);
        return st;
    }
    if (const auto spill = spill_index_.find(stream)) {
        const std::uint32_t* bank = &spill_hists_[*spill * pn];
        st.hists.assign(bank, bank + pn);
        st.last = spill_last_[*spill];
        return st;
    }
    return std::nullopt;
}

void
Shard::appendSnapshot(ValueTrace& out) const
{
    const std::size_t pn = kernel_.paddedColumns();
    const auto append = [&](std::uint64_t stream,
                            std::span<const std::uint32_t> bank,
                            Value last) {
        out.push_back({stream, last});
        for (std::size_t c = 0; c < pn; ++c)
            out.push_back({stream, Value{bank[c]}});
    };
    for (std::size_t slot = 0; slot < next_unused_; ++slot) {
        const std::uint64_t stream = slot_stream_[slot];
        const auto mapped = map_.find(stream);
        if (!mapped || *mapped != slot)
            continue;  // slot's stream was evicted and slot reused
        append(stream, kernel_.entryHists(slot),
               kernel_.lastValue(slot));
    }
    // Spilled streams that are not resident (a resident stream's
    // spill copy is stale; its live block was appended above).
    for (std::uint32_t spill = 0;
         spill < static_cast<std::uint32_t>(spill_last_.size());
         ++spill) {
        const std::uint64_t stream = spill_streams_[spill];
        if (map_.find(stream).has_value())
            continue;
        const std::uint32_t* bank = &spill_hists_[spill * pn];
        append(stream, {bank, pn}, spill_last_[spill]);
    }
}

void
Shard::installStream(std::uint64_t stream, const StreamState& state)
{
    const std::size_t pn = kernel_.paddedColumns();
    assert(state.hists.size() == pn);
    const std::uint32_t spill_slot = spillSlotFor(stream);
    std::copy(state.hists.begin(), state.hists.end(),
              spill_hists_.begin()
                      + static_cast<std::ptrdiff_t>(spill_slot * pn));
    spill_last_[spill_slot] = state.last;
    // If the stream is resident, the kernel copy is authoritative —
    // overwrite it too so install wins unambiguously.
    if (const auto slot = map_.find(stream)) {
        kernel_.setEntryHists(*slot, state.hists);
        kernel_.setLastValue(*slot, state.last);
        slot_spill_[*slot] = spill_slot;
    }
}

} // namespace vpred::service
