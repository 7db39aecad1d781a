#include "core/ideal_context_predictor.hh"

#include <cassert>
#include <sstream>

#include "core/trace_kernel.hh"

namespace vpred
{

IdealContextPredictor::IdealContextPredictor(unsigned l1_bits,
                                             unsigned order,
                                             bool differential,
                                             unsigned value_bits)
    : l1_bits_(l1_bits), order_(order), differential_(differential),
      value_bits_(value_bits), l1_mask_(maskBits(l1_bits)),
      value_mask_(maskBits(value_bits)),
      history_((std::size_t{1} << l1_bits) * order),
      last_(std::size_t{1} << l1_bits),
      l2_((order * value_bits + 63) / 64)
{
    assert(l1_bits <= 24);
    assert(order >= 1 && order <= 16);
    assert(value_bits >= 1 && value_bits <= 64);
}

void
IdealContextPredictor::keyOf(std::size_t l1_idx, Key& key) const
{
    // Elements are masked to value_bits, so the packed fields never
    // overlap and the key is exact. Each word is assembled in a
    // register and written once; an element that does not fit in
    // the current word carries its high bits into the next.
    const Value* h = &history_[l1_idx * order_];
    std::uint64_t word = 0;
    unsigned used = 0;  // bits of `word` filled so far, < 64
    std::size_t w = 0;
    for (unsigned i = 0; i < order_; ++i) {
        word |= h[i] << used;
        used += value_bits_;
        if (used >= 64) {
            key[w++] = word;
            used -= 64;
            word = used == 0 ? 0 : h[i] >> (value_bits_ - used);
        }
    }
    if (used != 0)
        key[w] = word;
}

void
IdealContextPredictor::advance(std::size_t l1_idx, Value stored,
                               Value actual)
{
    // A hand-written shift: at a few elements a memmove call costs
    // more than the move.
    Value* h = &history_[l1_idx * order_];
    for (unsigned i = 0; i < order_; ++i)
        h[i] = i + 1 == order_ ? stored : h[i + 1];
    last_[l1_idx] = actual;
}

Value
IdealContextPredictor::predict(Pc pc) const
{
    const std::size_t idx = pc & l1_mask_;
    Key key;
    keyOf(idx, key);
    const Value stored = l2_.find(key.data());
    if (differential_)
        return (last_[idx] + stored) & value_mask_;
    return stored;
}

void
IdealContextPredictor::update(Pc pc, Value actual)
{
    actual &= value_mask_;
    const std::size_t idx = pc & l1_mask_;
    const Value stored = differential_
        ? ((actual - last_[idx]) & value_mask_) : actual;

    Key key;
    keyOf(idx, key);
    l2_.findOrInsert(key.data()) = stored;
    advance(idx, stored, actual);
}

bool
IdealContextPredictor::predictAndUpdate(Pc pc, Value actual)
{
    // Fused predict + update: one level-2 probe per record (the
    // prediction reads the slot the update then writes).
    const std::size_t idx = pc & l1_mask_;
    Key key;
    keyOf(idx, key);
    Value& slot = l2_.findOrInsert(key.data());
    const Value last = last_[idx];
    const Value predicted =
            differential_ ? ((last + slot) & value_mask_) : slot;
    const bool correct = predicted == actual;

    actual &= value_mask_;
    slot = differential_ ? ((actual - last) & value_mask_) : actual;
    advance(idx, slot, actual);
    return correct;
}

PredictorStats
IdealContextPredictor::runTraceSpan(std::span<const TraceRecord> trace)
{
    PredictorStats stats;
    runTraceKernel(*this, trace, stats);
    return stats;
}

std::uint64_t
IdealContextPredictor::storageBits() const
{
    // Reference only: current materialized size (unbounded model).
    const std::uint64_t l1_entry =
            std::uint64_t{order_} * value_bits_
            + (differential_ ? value_bits_ : 0);
    return last_.size() * l1_entry
        + l2_.size() * std::uint64_t{value_bits_};
}

std::string
IdealContextPredictor::name() const
{
    std::ostringstream os;
    os << (differential_ ? "ideal-dfcm" : "ideal-fcm") << "(l1="
       << l1_bits_ << ",o=" << order_ << ")";
    return os.str();
}

} // namespace vpred
