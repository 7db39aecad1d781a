#include "core/alias_analysis.hh"

#include <algorithm>
#include <cassert>

namespace vpred
{

const char*
aliasTypeName(AliasType type)
{
    switch (type) {
      case AliasType::L1: return "l1";
      case AliasType::Hash: return "hash";
      case AliasType::L2Priv: return "l2_priv";
      case AliasType::L2Pc: return "l2_pc";
      case AliasType::None: return "none";
    }
    return "?";
}

PredictorStats
AliasBreakdown::total() const
{
    PredictorStats t;
    for (const PredictorStats& s : per_type)
        t += s;
    return t;
}

double
AliasBreakdown::fractionOfPredictions(AliasType t) const
{
    const PredictorStats all = total();
    if (all.predictions == 0)
        return 0.0;
    return static_cast<double>((*this)[t].predictions)
        / static_cast<double>(all.predictions);
}

double
AliasBreakdown::fractionWrong(AliasType t) const
{
    const PredictorStats all = total();
    if (all.predictions == 0)
        return 0.0;
    const PredictorStats& s = (*this)[t];
    return static_cast<double>(s.predictions - s.correct)
        / static_cast<double>(all.predictions);
}

AliasBreakdown&
AliasBreakdown::operator+=(const AliasBreakdown& o)
{
    for (std::size_t i = 0; i < kAliasTypeCount; ++i)
        per_type[i] += o.per_type[i];
    return *this;
}

AliasAnalyzer::AliasAnalyzer(const FcmConfig& config, bool differential)
    : cfg_(config), differential_(differential),
      hash_(config.resolvedHash()), order_(hash_.order()),
      l1_mask_(maskBits(config.l1_bits)),
      value_mask_(maskBits(config.value_bits)),
      l1_hash_(std::size_t{1} << config.l1_bits),
      l1_history_((std::size_t{1} << config.l1_bits) * order_),
      l1_writers_((std::size_t{1} << config.l1_bits) * order_),
      l1_last_(std::size_t{1} << config.l1_bits),
      l2_(std::size_t{1} << config.l2_bits),
      l2_history_((std::size_t{1} << config.l2_bits) * order_),
      l2_writer_(std::size_t{1} << config.l2_bits),
      private_l2_(1)
{
    assert(config.l1_bits <= 24 && config.l2_bits <= 24);
    std::fill(l1_writers_.begin(), l1_writers_.end(), kNoPc);
    std::fill(l2_writer_.begin(), l2_writer_.end(), kNoPc);
}

std::uint64_t
AliasAnalyzer::privKey(std::size_t l1_idx, std::uint64_t l2_idx) const
{
    return (static_cast<std::uint64_t>(l1_idx) << cfg_.l2_bits) | l2_idx;
}

AliasType
AliasAnalyzer::classifyAt(Pc pc, std::size_t l1_idx,
                          std::uint64_t l2_idx, Value priv) const
{
    // 1. Level-1 conflict: some history element was produced by a
    //    different static instruction (or never produced at all).
    const Pc* writers = &l1_writers_[l1_idx * order_];
    for (unsigned i = 0; i < order_; ++i) {
        if (writers[i] != pc)
            return AliasType::L1;
    }

    // 2. Hash conflict: the history recorded at the last update of
    //    this level-2 entry differs from the current one.
    const Value* history = &l1_history_[l1_idx * order_];
    const Value* recorded = &l2_history_[l2_idx * order_];
    for (unsigned i = 0; i < order_; ++i) {
        if (history[i] != recorded[i])
            return AliasType::Hash;
    }

    // 3. Private-table divergence: would a per-level-1-entry level-2
    //    table predict differently? Private tables start out zeroed
    //    like the global one.
    if (priv != l2_[l2_idx])
        return AliasType::L2Priv;

    // 4. Same history and content but last written by another
    //    instruction: neutral/constructive sharing.
    if (l2_writer_[l2_idx] != pc)
        return AliasType::L2Pc;

    return AliasType::None;
}

AliasType
AliasAnalyzer::classify(Pc pc) const
{
    const std::size_t l1_idx = pc & l1_mask_;
    const std::uint64_t l2_idx = l1_hash_[l1_idx];
    const std::uint64_t key = privKey(l1_idx, l2_idx);
    return classifyAt(pc, l1_idx, l2_idx, private_l2_.find(&key));
}

Value
AliasAnalyzer::predictValue(Pc pc) const
{
    const std::size_t l1_idx = pc & l1_mask_;
    const Value stored = l2_[l1_hash_[l1_idx]];
    if (differential_)
        return (l1_last_[l1_idx] + stored) & value_mask_;
    return stored;
}

void
AliasAnalyzer::step(Pc pc, Value actual)
{
    actual &= value_mask_;

    // The level-1 entry holds the functional hashed history, so the
    // level-2 index costs no re-hash; the FS R-k hash is an exact
    // function of the last `order` values, the same ones the shadow
    // history holds.
    const std::size_t l1_idx = pc & l1_mask_;
    const std::uint64_t l2_idx = l1_hash_[l1_idx];
    const std::uint64_t key = privKey(l1_idx, l2_idx);
    Value& priv = private_l2_.findOrInsert(&key);

    const Value last = l1_last_[l1_idx];
    const Value predicted = differential_
        ? ((last + l2_[l2_idx]) & value_mask_) : l2_[l2_idx];
    const AliasType type = classifyAt(pc, l1_idx, l2_idx, priv);
    breakdown_.per_type[static_cast<unsigned>(type)].record(
            predicted == actual);

    // --- update, mirroring Fcm/DfcmPredictor::update ---
    const Value stored = differential_
        ? ((actual - last) & value_mask_) : actual;
    l2_[l2_idx] = stored;
    l2_writer_[l2_idx] = pc;
    priv = stored;

    // Record the history at this update, then advance the
    // (difference) history and the writer shadow by one element. One
    // hand-written loop: the library copies cost more than the few
    // elements they move.
    Value* history = &l1_history_[l1_idx * order_];
    Pc* writers = &l1_writers_[l1_idx * order_];
    Value* recorded = &l2_history_[l2_idx * order_];
    for (unsigned i = 0; i < order_; ++i) {
        recorded[i] = history[i];
        const bool newest = i + 1 == order_;
        history[i] = newest ? stored : history[i + 1];
        writers[i] = newest ? pc : writers[i + 1];
    }
    l1_last_[l1_idx] = actual;
    l1_hash_[l1_idx] = hash_.insert(l2_idx, stored);
}

AliasBreakdown
AliasAnalyzer::run(std::span<const TraceRecord> trace)
{
    for (const TraceRecord& rec : trace)
        step(rec.pc, rec.value);
    return breakdown_;
}

} // namespace vpred
