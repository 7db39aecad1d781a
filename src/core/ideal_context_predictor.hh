/**
 * @file
 * Ideal-index context predictors: FCM/DFCM variants whose level-2
 * "table" is an unbounded, collision-free map from the *exact*
 * history to the stored value.
 *
 * The paper closes its aliasing analysis with: "the hashing function
 * remains responsible for the majority of the mispredictions (59%),
 * there is still plenty of room for improvement." These predictors
 * measure that headroom: they remove hash aliasing (and capacity
 * aliasing) entirely while keeping the two-level prediction
 * principle, bounding what any better hash could achieve at a given
 * order. They are analysis devices, not hardware proposals — their
 * storage is unbounded, so storageBits() reports the *current* model
 * size for reference only.
 */

#ifndef DFCM_CORE_IDEAL_CONTEXT_PREDICTOR_HH
#define DFCM_CORE_IDEAL_CONTEXT_PREDICTOR_HH

#include <array>

#include "core/exact_key_table.hh"
#include "core/table_arena.hh"
#include "core/value_predictor.hh"

namespace vpred
{

/**
 * Order-k context predictor with exact (collision-free) context
 * lookup, in plain (FCM) or differential (DFCM) form.
 *
 * The level-1 table is still finite and untagged (indexed by the
 * instruction's low bits) so level-1 behaviour matches the real
 * predictors; only the level-2 indexing is idealized. The level-2
 * key is the level-1 history packed at value_bits per element into
 * ceil(order * value_bits / 64) words, so every order <= 16 and
 * every width <= 64 share one exact key layout.
 */
class IdealContextPredictor : public ValuePredictor
{
  public:
    /**
     * @param l1_bits log2(#level-1 entries), at most 24.
     * @param order History length (values or differences), 1..16.
     * @param differential False = FCM form, true = DFCM form.
     * @param value_bits Predicted value width, 1..64.
     */
    IdealContextPredictor(unsigned l1_bits, unsigned order,
                          bool differential, unsigned value_bits = 32);

    Value predict(Pc pc) const override;
    void update(Pc pc, Value actual) override;
    bool predictAndUpdate(Pc pc, Value actual) override;
    PredictorStats runTraceSpan(std::span<const TraceRecord>) override;
    std::uint64_t storageBits() const override;
    std::string name() const override;

    /** Number of distinct contexts materialized so far. */
    std::size_t contextCount() const { return l2_.size(); }

    unsigned order() const { return order_; }

  private:
    using Key = std::array<std::uint64_t, ExactKeyTable::kMaxKeyWords>;

    /** Pack level-1 entry @p l1_idx's history into @p key. */
    void keyOf(std::size_t l1_idx, Key& key) const;

    /** Shift @p stored into entry @p l1_idx's history and record
     *  @p actual as its last value. */
    void advance(std::size_t l1_idx, Value stored, Value actual);

    unsigned l1_bits_;
    unsigned order_;
    bool differential_;
    unsigned value_bits_;
    std::uint64_t l1_mask_;
    std::uint64_t value_mask_;
    TableBuffer<Value> history_;  //!< order values per entry, oldest first
    TableBuffer<Value> last_;     //!< last value per entry
    ExactKeyTable l2_;            //!< exact history -> stored value
};

} // namespace vpred

#endif // DFCM_CORE_IDEAL_CONTEXT_PREDICTOR_HH
