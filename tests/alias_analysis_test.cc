/**
 * @file
 * Unit tests for the Figure 12-14 aliasing taxonomy, and a pin of the
 * flat-shadow analyzer against the vector/unordered_map one it
 * replaced.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/alias_analysis.hh"
#include "core/dfcm_predictor.hh"
#include "tracegen/mixer.hh"
#include "tracegen/pattern.hh"

namespace vpred
{
namespace
{

/**
 * AliasAnalyzer as it stood before the flat rewrite, kept verbatim as
 * the reference model: std::vector histories and writer lists per
 * entry, an unordered_map private table, and a re-hash of the shadow
 * history in classify, predictValue and step.
 */
class ReferenceAliasAnalyzer
{
  public:
    ReferenceAliasAnalyzer(const FcmConfig& config, bool differential)
        : cfg_(config), differential_(differential),
          hash_(config.resolvedHash()), order_(hash_.order()),
          l1_mask_(maskBits(config.l1_bits)),
          value_mask_(maskBits(config.value_bits)),
          l1_(std::size_t{1} << config.l1_bits),
          l2_(std::size_t{1} << config.l2_bits, 0),
          l2_shadow_(std::size_t{1} << config.l2_bits)
    {
        for (L1Shadow& s : l1_) {
            s.history.assign(order_, 0);
            s.writers.assign(order_, kNoPc);
        }
        for (L2Shadow& s : l2_shadow_) {
            s.history.assign(order_, 0);
            s.writer = kNoPc;
        }
    }

    AliasType
    classify(Pc pc) const
    {
        const std::size_t l1_idx = pc & l1_mask_;
        const L1Shadow& s1 = l1_[l1_idx];
        const std::uint64_t l2_idx = hashOf(s1.history);
        for (Pc w : s1.writers) {
            if (w != pc)
                return AliasType::L1;
        }
        const L2Shadow& s2 = l2_shadow_[l2_idx];
        if (s2.history != s1.history)
            return AliasType::Hash;
        const auto it = private_l2_.find(privKey(l1_idx, l2_idx));
        const Value priv = it == private_l2_.end() ? 0 : it->second;
        if (priv != l2_[l2_idx])
            return AliasType::L2Priv;
        if (s2.writer != pc)
            return AliasType::L2Pc;
        return AliasType::None;
    }

    Value
    predictValue(Pc pc) const
    {
        const L1Shadow& s1 = l1_[pc & l1_mask_];
        const std::uint64_t l2_idx = hashOf(s1.history);
        if (differential_)
            return (s1.last + l2_[l2_idx]) & value_mask_;
        return l2_[l2_idx];
    }

    void
    step(Pc pc, Value actual)
    {
        actual &= value_mask_;
        const AliasType type = classify(pc);
        const bool correct = predictValue(pc) == actual;
        breakdown_.per_type[static_cast<unsigned>(type)].record(correct);

        const std::size_t l1_idx = pc & l1_mask_;
        L1Shadow& s1 = l1_[l1_idx];
        const std::uint64_t l2_idx = hashOf(s1.history);
        const Value stored = differential_
            ? ((actual - s1.last) & value_mask_) : actual;
        l2_[l2_idx] = stored;
        l2_shadow_[l2_idx].history = s1.history;
        l2_shadow_[l2_idx].writer = pc;
        private_l2_[privKey(l1_idx, l2_idx)] = stored;
        s1.history.erase(s1.history.begin());
        s1.history.push_back(stored);
        s1.writers.erase(s1.writers.begin());
        s1.writers.push_back(pc);
        s1.last = actual;
    }

    const AliasBreakdown& breakdown() const { return breakdown_; }

  private:
    struct L1Shadow
    {
        std::vector<Value> history;
        std::vector<Pc> writers;
        Value last = 0;
    };

    struct L2Shadow
    {
        std::vector<Value> history;
        Pc writer;
    };

    std::uint64_t
    hashOf(const std::vector<Value>& history) const
    {
        std::uint64_t h = 0;
        for (Value v : history)
            h = hash_.insert(h, v);
        return h;
    }

    std::uint64_t
    privKey(std::size_t l1_idx, std::uint64_t l2_idx) const
    {
        return (static_cast<std::uint64_t>(l1_idx) << cfg_.l2_bits)
            | l2_idx;
    }

    FcmConfig cfg_;
    bool differential_;
    ShiftFoldHash hash_;
    unsigned order_;
    std::uint64_t l1_mask_;
    std::uint64_t value_mask_;
    static constexpr Pc kNoPc = ~Pc{0};

    std::vector<L1Shadow> l1_;
    std::vector<Value> l2_;
    std::vector<L2Shadow> l2_shadow_;
    std::unordered_map<std::uint64_t, Value> private_l2_;
    AliasBreakdown breakdown_;
};

FcmConfig
config(unsigned l1_bits = 8, unsigned l2_bits = 12)
{
    FcmConfig cfg;
    cfg.l1_bits = l1_bits;
    cfg.l2_bits = l2_bits;
    return cfg;
}

TEST(AliasAnalyzer, L1ConflictDetected)
{
    // Two PCs that collide in a tiny level-1 table: each sees
    // history elements written by the other.
    AliasAnalyzer a(config(2), /*differential=*/false);
    a.step(1, 100);
    a.step(5, 200);  // 5 & 3 == 1: same level-1 entry
    EXPECT_EQ(a.classify(1), AliasType::L1);
}

TEST(AliasAnalyzer, NoAliasOnPrivatePattern)
{
    // One instruction, large tables: after warm-up the taxonomy
    // settles into "none" (or the benign l2_pc never fires since
    // there is a single pc).
    AliasAnalyzer a(config(8, 12), false);
    for (int lap = 0; lap < 40; ++lap)
        for (Value v : {3u, 9u, 27u, 81u})
            a.step(7, v);
    EXPECT_EQ(a.classify(7), AliasType::None);
}

TEST(AliasAnalyzer, L2PcSharingDetected)
{
    // Two PCs in *different* level-1 entries producing identical
    // histories share level-2 entries: benign l2_pc aliasing.
    AliasAnalyzer a(config(8, 12), false);
    for (int lap = 0; lap < 40; ++lap) {
        for (Value v : {3u, 9u, 27u, 81u}) {
            a.step(7, v);
            a.step(8, v);
        }
    }
    // pc 7's entry was last updated by pc 8 (interleaved pattern).
    EXPECT_EQ(a.classify(7), AliasType::L2Pc);
}

TEST(AliasAnalyzer, FunctionalTablesMatchRealFcm)
{
    // The instrumented predictor must predict exactly like the plain
    // FCM on any trace.
    const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 6,
             .constant_instructions = 2,
             .context_instructions = 4,
             .random_instructions = 1,
             .seed = 7},
            20000);

    FcmPredictor fcm(config(8, 12));
    AliasAnalyzer analyzer(config(8, 12), false);
    for (const TraceRecord& rec : trace) {
        ASSERT_EQ(analyzer.predictValue(rec.pc), fcm.predict(rec.pc));
        analyzer.step(rec.pc, rec.value);
        fcm.update(rec.pc, rec.value);
    }
}

TEST(AliasAnalyzer, FunctionalTablesMatchRealDfcm)
{
    const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 8,
             .constant_instructions = 2,
             .context_instructions = 4,
             .random_instructions = 1,
             .seed = 11},
            20000);

    DfcmPredictor dfcm({.l1_bits = 8, .l2_bits = 12});
    AliasAnalyzer analyzer(config(8, 12), true);
    for (const TraceRecord& rec : trace) {
        ASSERT_EQ(analyzer.predictValue(rec.pc), dfcm.predict(rec.pc));
        analyzer.step(rec.pc, rec.value);
        dfcm.update(rec.pc, rec.value);
    }
}

TEST(AliasAnalyzer, BreakdownCountsEveryPrediction)
{
    const ValueTrace trace = tracegen::makeMixedTrace({.seed = 3},
                                                      15000);
    AliasAnalyzer a(config(8, 12), false);
    const AliasBreakdown b = a.run(trace);
    EXPECT_EQ(b.total().predictions, trace.size());

    double fraction_sum = 0.0;
    for (unsigned t = 0; t < kAliasTypeCount; ++t)
        fraction_sum += b.fractionOfPredictions(static_cast<AliasType>(t));
    EXPECT_NEAR(fraction_sum, 1.0, 1e-9);
}

TEST(AliasAnalyzer, FractionWrongSumsToMispredictionRate)
{
    const ValueTrace trace = tracegen::makeMixedTrace({.seed = 5},
                                                      15000);
    AliasAnalyzer a(config(8, 12), true);
    const AliasBreakdown b = a.run(trace);
    double wrong_sum = 0.0;
    for (unsigned t = 0; t < kAliasTypeCount; ++t)
        wrong_sum += b.fractionWrong(static_cast<AliasType>(t));
    const PredictorStats total = b.total();
    EXPECT_NEAR(wrong_sum, 1.0 - total.accuracy(), 1e-9);
}

TEST(AliasAnalyzer, HashAliasingDominatesUnderPressure)
{
    // Small level-2 table + many instructions with distinct patterns:
    // hash conflicts must appear (the paper's dominant category).
    const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 40,
             .context_instructions = 30,
             .random_instructions = 6,
             .seed = 17},
            60000);
    AliasAnalyzer a(config(12, 8), false);
    const AliasBreakdown b = a.run(trace);
    EXPECT_GT(b.fractionOfPredictions(AliasType::Hash), 0.1);
}

TEST(AliasAnalyzer, MatchesVectorShadowReference)
{
    // Geometries from a level-1 table small enough that PCs collide
    // to the figures' 2^12, level-2 sizes from heavy hash pressure to
    // almost none, and one non-default hash (FS R-3, order 4 at
    // 2^12). Every record's classification and prediction, and
    // every breakdown count, must match.
    const ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 20,
             .context_instructions = 12,
             .random_instructions = 3,
             .seed = 99},
            12000);
    std::vector<FcmConfig> geometries;
    for (unsigned l1 : {4u, 12u}) {
        for (unsigned l2 : {4u, 8u, 12u, 16u})
            geometries.push_back(config(l1, l2));
    }
    FcmConfig shifted = config(12, 12);
    shifted.hash = ShiftFoldHash::fsRk(12, 3);
    geometries.push_back(shifted);

    for (const FcmConfig& cfg : geometries) {
        for (bool differential : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "l1 " << cfg.l1_bits << " l2 " << cfg.l2_bits
                         << " shift " << cfg.resolvedHash().shift()
                         << " differential " << differential);
            AliasAnalyzer fast(cfg, differential);
            ReferenceAliasAnalyzer ref(cfg, differential);
            for (std::size_t i = 0; i < trace.size(); ++i) {
                const TraceRecord& rec = trace[i];
                ASSERT_EQ(fast.classify(rec.pc), ref.classify(rec.pc))
                        << "record " << i;
                ASSERT_EQ(fast.predictValue(rec.pc),
                          ref.predictValue(rec.pc))
                        << "record " << i;
                fast.step(rec.pc, rec.value);
                ref.step(rec.pc, rec.value);
            }
            for (unsigned t = 0; t < kAliasTypeCount; ++t) {
                const auto type = static_cast<AliasType>(t);
                EXPECT_EQ(fast.breakdown()[type], ref.breakdown()[type])
                        << aliasTypeName(type);
            }

            // run() over the whole trace agrees with the stepped one.
            AliasAnalyzer whole(cfg, differential);
            const AliasBreakdown b = whole.run(trace);
            for (unsigned t = 0; t < kAliasTypeCount; ++t)
                EXPECT_EQ(b.per_type[t], ref.breakdown().per_type[t]);
        }
    }
}

TEST(AliasAnalyzer, TypeNames)
{
    EXPECT_STREQ(aliasTypeName(AliasType::L1), "l1");
    EXPECT_STREQ(aliasTypeName(AliasType::Hash), "hash");
    EXPECT_STREQ(aliasTypeName(AliasType::L2Priv), "l2_priv");
    EXPECT_STREQ(aliasTypeName(AliasType::L2Pc), "l2_pc");
    EXPECT_STREQ(aliasTypeName(AliasType::None), "none");
}

} // namespace
} // namespace vpred
