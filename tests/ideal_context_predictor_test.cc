/**
 * @file
 * Unit tests for the ideal-index (collision-free) context
 * predictors, and a pin of the flat exact-key implementation against
 * the string-keyed one it replaced.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dfcm_predictor.hh"
#include "core/fcm_predictor.hh"
#include "core/ideal_context_predictor.hh"
#include "core/stats.hh"
#include "tracegen/mixer.hh"

namespace vpred
{
namespace
{

/**
 * The string-keyed IdealContextPredictor as it stood before the flat
 * rewrite, kept verbatim as the reference model: an unordered_map
 * from the history's bytes to the stored value, and a std::vector
 * history per level-1 entry.
 */
class ReferenceIdealContext : public ValuePredictor
{
  public:
    ReferenceIdealContext(unsigned l1_bits, unsigned order,
                          bool differential, unsigned value_bits = 32)
        : l1_bits_(l1_bits), order_(order), differential_(differential),
          value_bits_(value_bits), l1_mask_(maskBits(l1_bits)),
          value_mask_(maskBits(value_bits)),
          l1_(std::size_t{1} << l1_bits)
    {
        for (L1Entry& e : l1_)
            e.history.assign(order_, 0);
    }

    Value
    predict(Pc pc) const override
    {
        const L1Entry& e = l1_[pc & l1_mask_];
        const auto it = l2_.find(keyOf(e.history));
        const Value stored = it == l2_.end() ? 0 : it->second;
        if (differential_)
            return (e.last + stored) & value_mask_;
        return stored;
    }

    void
    update(Pc pc, Value actual) override
    {
        actual &= value_mask_;
        L1Entry& e = l1_[pc & l1_mask_];
        const Value stored = differential_
            ? ((actual - e.last) & value_mask_) : actual;

        l2_[keyOf(e.history)] = stored;
        e.history.erase(e.history.begin());
        e.history.push_back(stored);
        e.last = actual;
    }

    std::uint64_t
    storageBits() const override
    {
        const std::uint64_t l1_entry =
                std::uint64_t{order_} * value_bits_
                + (differential_ ? value_bits_ : 0);
        return l1_.size() * l1_entry
            + l2_.size() * std::uint64_t{value_bits_};
    }

    std::string
    name() const override
    {
        std::ostringstream os;
        os << (differential_ ? "ideal-dfcm" : "ideal-fcm") << "(l1="
           << l1_bits_ << ",o=" << order_ << ")";
        return os.str();
    }

    std::size_t contextCount() const { return l2_.size(); }

  private:
    struct L1Entry
    {
        Value last = 0;
        std::vector<Value> history;
    };

    std::string
    keyOf(const std::vector<Value>& history) const
    {
        std::string key;
        key.reserve(history.size() * 8);
        for (Value v : history) {
            for (int i = 0; i < 8; ++i)
                key.push_back(static_cast<char>(v >> (8 * i)));
        }
        return key;
    }

    unsigned l1_bits_;
    unsigned order_;
    bool differential_;
    unsigned value_bits_;
    std::uint64_t l1_mask_;
    std::uint64_t value_mask_;
    std::vector<L1Entry> l1_;
    std::unordered_map<std::string, Value> l2_;
};

TEST(IdealContextPredictor, LearnsContextPatternsExactly)
{
    IdealContextPredictor p(8, 3, /*differential=*/false);
    const Value pattern[] = {5, 5, 9, 1, 7};
    PredictorStats s;
    for (int lap = 0; lap < 40; ++lap)
        for (Value v : pattern)
            s.record(p.predictAndUpdate(1, v));
    // After the first lap there is no aliasing of any kind: perfect.
    EXPECT_GE(s.correct, s.predictions - 8);
}

TEST(IdealContextPredictor, DifferentialFormPredictsFreshStrides)
{
    IdealContextPredictor p(8, 3, /*differential=*/true);
    PredictorStats s;
    for (int i = 0; i < 100; ++i)
        s.record(p.predictAndUpdate(1, 50 + 9 * i));
    EXPECT_GE(s.correct, 94u);
}

TEST(IdealContextPredictor, NeverWorseThanHashedAtSameOrder)
{
    // Removing hash collisions can only help on a trace with heavy
    // table pressure.
    const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 30,
             .context_instructions = 25,
             .random_instructions = 4,
             .seed = 5150},
            100000);

    FcmPredictor fcm({.l1_bits = 10, .l2_bits = 10});  // order 2
    IdealContextPredictor ideal(10, fcm.order(), false);
    EXPECT_GE(runTrace(ideal, trace).correct + 200,
              runTrace(fcm, trace).correct);

    DfcmPredictor dfcm({.l1_bits = 10, .l2_bits = 10});
    IdealContextPredictor ideal_d(10, dfcm.order(), true);
    EXPECT_GE(runTrace(ideal_d, trace).correct + 200,
              runTrace(dfcm, trace).correct);
}

TEST(IdealContextPredictor, StrideUsesOneContext)
{
    // The differential ideal predictor materializes just a couple of
    // contexts for a pure stride (constant difference history).
    IdealContextPredictor p(8, 4, true);
    for (int i = 0; i < 200; ++i)
        p.update(1, 3 * i);
    EXPECT_LE(p.contextCount(), 6u);

    // The plain form materializes one context per value (Figure 4).
    IdealContextPredictor q(8, 4, false);
    for (int i = 0; i < 200; ++i)
        q.update(1, 3 * i);
    EXPECT_GE(q.contextCount(), 190u);
}

TEST(IdealContextPredictor, Name)
{
    EXPECT_EQ(IdealContextPredictor(10, 3, false).name(),
              "ideal-fcm(l1=10,o=3)");
    EXPECT_EQ(IdealContextPredictor(10, 3, true).name(),
              "ideal-dfcm(l1=10,o=3)");
}

TEST(IdealContextPredictor, MatchesStringKeyedReference)
{
    // Every order the constructor accepts, at a narrow, the paper's
    // and the full width, in both forms. The small level-1 table
    // forces level-1 conflicts. Trace values are spread over all 64
    // bits by an odd multiplier (a bijection, so the patterns
    // survive) so that narrow widths mask real bits and wide ones
    // pack them.
    ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 12,
             .context_instructions = 10,
             .random_instructions = 3,
             .seed = 2024},
            6000);
    for (TraceRecord& rec : trace)
        rec.value *= 0x9e3779b97f4a7c15ull;

    for (unsigned order = 1; order <= 16; ++order) {
        for (unsigned value_bits : {8u, 32u, 64u}) {
            for (bool differential : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << "order " << order << " value_bits "
                             << value_bits << " differential "
                             << differential);
                IdealContextPredictor fast(4, order, differential,
                                           value_bits);
                ReferenceIdealContext ref(4, order, differential,
                                          value_bits);
                // Alternate the fused step and the reference
                // predict/update path of the new class.
                for (std::size_t i = 0; i < trace.size(); ++i) {
                    const TraceRecord& rec = trace[i];
                    const Value expected = ref.predict(rec.pc);
                    ASSERT_EQ(fast.predict(rec.pc), expected)
                            << "record " << i;
                    if (i % 2 == 0) {
                        ASSERT_EQ(fast.predictAndUpdate(rec.pc, rec.value),
                                  expected == rec.value)
                                << "record " << i;
                    } else {
                        fast.update(rec.pc, rec.value);
                    }
                    ref.update(rec.pc, rec.value);
                }
                EXPECT_EQ(fast.contextCount(), ref.contextCount());
                EXPECT_EQ(fast.storageBits(), ref.storageBits());
                EXPECT_EQ(fast.name(), ref.name());

                // The devirtualized whole-trace path agrees too.
                IdealContextPredictor whole(4, order, differential,
                                            value_bits);
                ReferenceIdealContext whole_ref(4, order, differential,
                                                value_bits);
                EXPECT_EQ(runTrace(whole, trace), runTrace(whole_ref, trace));
                EXPECT_EQ(whole.contextCount(), whole_ref.contextCount());
            }
        }
    }
}

} // namespace
} // namespace vpred
