/**
 * @file
 * Equivalence tests for the batched sweep kernels: the fused
 * predictAndUpdate overrides must match the composed
 * predict-then-update discipline record by record, and the
 * multi-geometry kernels must reproduce the per-config sweep
 * bit-identically — including over the full Figure 10 grid on all
 * paper workloads (at a reduced trace scale so the suite stays a
 * fast smoke test; labelled "perf" in CTest).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cpu_features.hh"
#include "core/multi_geom.hh"
#include "core/predictor_factory.hh"
#include "core/stats.hh"
#include "harness/batch_sweep.hh"
#include "harness/parallel_sweep.hh"
#include "harness/sweep.hh"
#include "tracegen/mixer.hh"

namespace
{

using namespace vpred;

/**
 * A mixed synthetic trace with a tail of adversarial records: raw
 * 64-bit values whose high bits exceed the 32-bit value mask (the
 * fused paths must compare the *raw* actual, like the composed
 * discipline does), aliasing PCs above the l1 mask, and zeros.
 */
ValueTrace
adversarialTrace()
{
    ValueTrace trace = tracegen::makeMixedTrace(
            {.stride_instructions = 8,
             .constant_instructions = 2,
             .context_instructions = 6,
             .random_instructions = 2,
             .seed = 7},
            8192);
    const Pc high_pc = (Pc{1} << 40) + 3;
    for (std::uint64_t i = 0; i < 64; ++i) {
        trace.push_back({i % 5, (std::uint64_t{0xdead} << 32) + i});
        trace.push_back({high_pc, i * 0x10001});
        trace.push_back({i % 3, 0});
    }
    return trace;
}

/** Configs covering every fused family plus masking edge cases. */
std::vector<PredictorConfig>
fusedFamilyConfigs()
{
    std::vector<PredictorConfig> configs;
    for (PredictorKind kind :
         {PredictorKind::Lvp, PredictorKind::Stride,
          PredictorKind::TwoDelta, PredictorKind::Fcm,
          PredictorKind::Dfcm}) {
        PredictorConfig cfg;
        cfg.kind = kind;
        cfg.l1_bits = 8;
        cfg.l2_bits = 10;
        configs.push_back(cfg);

        cfg.value_bits = 16;  // narrow value mask
        configs.push_back(cfg);
    }
    PredictorConfig narrow;  // narrowed-stride DFCM exercises widen()
    narrow.kind = PredictorKind::Dfcm;
    narrow.l1_bits = 8;
    narrow.l2_bits = 10;
    narrow.stride_bits = 8;
    configs.push_back(narrow);
    return configs;
}

TEST(FusedPredictAndUpdate, MatchesComposedDiscipline)
{
    const ValueTrace trace = adversarialTrace();
    for (const PredictorConfig& cfg : fusedFamilyConfigs()) {
        auto fused = makePredictor(cfg);
        auto composed = makePredictor(cfg);
        SCOPED_TRACE(fused->name());
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const TraceRecord& rec = trace[i];
            const bool want = composed->predict(rec.pc) == rec.value;
            composed->update(rec.pc, rec.value);
            const bool got = fused->predictAndUpdate(rec.pc, rec.value);
            ASSERT_EQ(got, want) << "record " << i;
        }
    }
}

TEST(FusedPredictAndUpdate, RunTraceMatchesComposedStats)
{
    const ValueTrace trace = adversarialTrace();
    for (const PredictorConfig& cfg : fusedFamilyConfigs()) {
        auto fused = makePredictor(cfg);
        auto composed = makePredictor(cfg);
        PredictorStats want;
        for (const TraceRecord& rec : trace) {
            want.record(composed->predict(rec.pc) == rec.value);
            composed->update(rec.pc, rec.value);
        }
        EXPECT_EQ(runTrace(*fused, trace), want) << fused->name();
    }
}

/** Per-config reference for one multi-geometry column. */
std::vector<PredictorStats>
referenceColumn(PredictorKind kind, const MultiGeomConfig& geom,
                const ValueTrace& trace)
{
    std::vector<PredictorStats> stats;
    for (unsigned l2 : geom.l2_bits) {
        PredictorConfig cfg;
        cfg.kind = kind;
        cfg.l1_bits = geom.l1_bits;
        cfg.l2_bits = l2;
        cfg.value_bits = geom.value_bits;
        cfg.stride_bits = geom.stride_bits;
        cfg.hash_shift = geom.hash_shift;
        auto p = makePredictor(cfg);
        stats.push_back(runTrace(*p, trace));
    }
    return stats;
}

TEST(MultiGeomKernel, FcmMatchesPerConfig)
{
    const ValueTrace trace = adversarialTrace();
    MultiGeomConfig geom;
    geom.l1_bits = 10;
    geom.l2_bits = harness::paperL2Bits();
    MultiGeomFcmKernel kernel(geom);
    EXPECT_EQ(kernel.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Fcm, geom, trace));
}

TEST(MultiGeomKernel, DfcmMatchesPerConfig)
{
    const ValueTrace trace = adversarialTrace();
    MultiGeomConfig geom;
    geom.l1_bits = 10;
    geom.l2_bits = harness::paperL2Bits();
    MultiGeomDfcmKernel kernel(geom);
    EXPECT_EQ(kernel.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Dfcm, geom, trace));
}

TEST(MultiGeomKernel, NarrowGeometryMatchesPerConfig)
{
    const ValueTrace trace = adversarialTrace();
    MultiGeomConfig geom;
    geom.l1_bits = 6;
    geom.value_bits = 16;
    geom.stride_bits = 8;   // exercises widen() on every column
    geom.hash_shift = 3;    // non-default FS R-k
    geom.l2_bits = {4, 9, 13};
    MultiGeomDfcmKernel dfcm(geom);
    EXPECT_EQ(dfcm.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Dfcm, geom, trace));
    MultiGeomFcmKernel fcm(geom);
    EXPECT_EQ(fcm.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Fcm, geom, trace));
}

TEST(MultiGeomKernel, OrderBoundaryShortTrace)
{
    // Two records is fewer than the order-4 history of a 2^20-entry
    // level-2 table: the warm-up phase must agree too.
    const ValueTrace trace = {{1, 42}, {1, 45}};
    MultiGeomConfig geom;
    geom.l1_bits = 4;
    geom.l2_bits = {8, 20};
    MultiGeomFcmKernel fcm(geom);
    MultiGeomDfcmKernel dfcm(geom);
    ASSERT_GE(fcm.maxOrder(), 4u);
    EXPECT_EQ(fcm.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Fcm, geom, trace));
    EXPECT_EQ(dfcm.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Dfcm, geom, trace));
    // Repeated runs start from power-on state again.
    EXPECT_EQ(dfcm.runTrace({trace.data(), trace.size()}),
              referenceColumn(PredictorKind::Dfcm, geom, trace));
}

/** The Figure 10 grid: FCM and DFCM alternating over the l2 column. */
std::vector<PredictorConfig>
fig10Grid()
{
    std::vector<PredictorConfig> configs;
    for (unsigned l2 : harness::paperL2Bits()) {
        PredictorConfig cfg;
        cfg.l1_bits = 16;
        cfg.l2_bits = l2;
        cfg.kind = PredictorKind::Fcm;
        configs.push_back(cfg);
        cfg.kind = PredictorKind::Dfcm;
        configs.push_back(cfg);
    }
    return configs;
}

TEST(MultiGeomKernel, ChunkedFeedMatchesSingleRun)
{
    // The service feeds batches incrementally; any chunking must end
    // in the same state and the same summed stats as one runTrace.
    const ValueTrace trace = adversarialTrace();
    const MultiGeomConfig cfg{.l1_bits = 6,
                              .value_bits = 32,
                              .stride_bits = 32,
                              .hash_shift = 5,
                              .l2_bits = {4, 8, 12}};

    MultiGeomDfcmKernel whole(cfg);
    const std::vector<PredictorStats> ref = whole.runTrace(trace);

    MultiGeomDfcmKernel chunked(cfg);
    chunked.reset();
    std::vector<std::uint64_t> correct(cfg.l2_bits.size(), 0);
    // Deliberately ragged chunk sizes, including empty ones.
    const std::size_t sizes[] = {1, 0, 7, 1024, 3, 4096, 1u << 30};
    std::span<const TraceRecord> rest(trace);
    for (const std::size_t want : sizes) {
        const std::size_t n = std::min(want, rest.size());
        const auto stats = chunked.feedTrace(rest.subspan(0, n));
        for (std::size_t c = 0; c < stats.size(); ++c)
            correct[c] += stats[c].correct;
        rest = rest.subspan(n);
    }
    ASSERT_TRUE(rest.empty());

    for (std::size_t c = 0; c < ref.size(); ++c)
        EXPECT_EQ(correct[c], ref[c].correct) << "column " << c;
    for (std::size_t e = 0; e < whole.l1Entries(); ++e) {
        ASSERT_TRUE(std::ranges::equal(whole.entryHists(e),
                                       chunked.entryHists(e)))
                << "entry " << e;
        ASSERT_EQ(whole.lastValue(e), chunked.lastValue(e))
                << "entry " << e;
    }
}

TEST(MultiGeomKernel, EntryStateExportClearRestoreRoundTrips)
{
    // Snapshot support: every entry's level-1 state (history bank +
    // last value), exported mid-trace and reinstalled into a fresh,
    // power-on kernel, must carry on bit-identically — level-1
    // updates never read the level-2 tables, which the fresh kernel
    // does not have.
    const ValueTrace trace = adversarialTrace();
    const std::span<const TraceRecord> all(trace);
    const std::size_t half = trace.size() / 2;
    const MultiGeomConfig cfg{.l1_bits = 5,
                              .value_bits = 32,
                              .stride_bits = 32,
                              .hash_shift = 5,
                              .l2_bits = {6, 10}};
    MultiGeomDfcmKernel kernel(cfg);
    kernel.feedTrace(all.subspan(0, half));

    MultiGeomDfcmKernel restored(cfg);
    for (std::size_t e = 0; e < kernel.l1Entries(); ++e) {
        restored.setEntryHists(e, kernel.entryHists(e));
        restored.setLastValue(e, kernel.lastValue(e));
        EXPECT_TRUE(std::ranges::equal(restored.entryHists(e),
                                       kernel.entryHists(e)));
        EXPECT_EQ(restored.lastValue(e), kernel.lastValue(e));
    }

    kernel.feedTrace(all.subspan(half));
    restored.feedTrace(all.subspan(half));
    for (std::size_t e = 0; e < kernel.l1Entries(); ++e) {
        ASSERT_TRUE(std::ranges::equal(restored.entryHists(e),
                                       kernel.entryHists(e)))
                << "entry " << e;
        ASSERT_EQ(restored.lastValue(e), kernel.lastValue(e))
                << "entry " << e;
    }
}

/**
 * The prediction service's numbering: adversarialTrace() with each
 * PC re-keyed per 500-record epoch (so new streams keep arriving
 * all through the trace), then renumbered to dense ids in
 * first-arrival order.
 */
ValueTrace
denseArrivalTrace()
{
    ValueTrace trace = adversarialTrace();
    std::map<std::pair<Pc, std::size_t>, Pc> dense;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto key = std::pair(trace[i].pc, i / 500);
        trace[i].pc = dense.try_emplace(key, dense.size()).first->second;
    }
    return trace;
}

TEST(MultiGeomKernel, DfcmGrowEntriesMatchesKernelBuiltAtFinalSize)
{
    // The service's permanent-entry store: a kernel that starts at
    // four entries and grows, by doubling, whenever an id arrives
    // that it cannot hold — between the ragged chunks of a feed, as
    // a shard does — must end with the stats and every entry's
    // state of a kernel built at the final size. Old entries keep
    // their state across a growth and new ones start at zero.
    const ValueTrace trace = denseArrivalTrace();
    Pc max_pc = 0;
    for (const TraceRecord& rec : trace)
        max_pc = std::max(max_pc, rec.pc);
    const MultiGeomConfig initial{.l1_bits = 2,
                                  .value_bits = 32,
                                  .stride_bits = 32,
                                  .hash_shift = 5,
                                  .l2_bits = {4, 8, 12}};
    MultiGeomConfig final_cfg = initial;
    while ((Pc{1} << final_cfg.l1_bits) <= max_pc)
        ++final_cfg.l1_bits;
    ASSERT_GE(final_cfg.l1_bits, 8u) << "trace too small to grow";

    for (const SimdBackend backend : availableSimdBackends()) {
        SCOPED_TRACE(std::string("backend ") + simdBackendName(backend));
        MultiGeomDfcmKernel built(final_cfg);
        const std::vector<PredictorStats> want =
                built.runTrace(trace, backend);

        MultiGeomDfcmKernel grown(initial);
        std::vector<std::uint64_t> correct(initial.l2_bits.size(), 0);
        unsigned growths = 0;
        const std::size_t sizes[] = {1, 0, 7, 100, 3, 513, 64};
        std::span<const TraceRecord> rest(trace);
        for (std::size_t k = 0; !rest.empty(); ++k) {
            const std::span<const TraceRecord> chunk = rest.subspan(
                    0, std::min(sizes[k % std::size(sizes)], rest.size()));
            rest = rest.subspan(chunk.size());
            for (const TraceRecord& rec : chunk) {
                if (rec.pc < grown.l1Entries())
                    continue;
                // Dense first-arrival ids: a new id is exactly the
                // next entry, so each growth is one doubling.
                ASSERT_EQ(rec.pc, grown.l1Entries());
                grown.growEntries(rec.pc + 1);
                ++growths;
            }
            const auto stats = grown.feedTrace(chunk, backend);
            for (std::size_t c = 0; c < stats.size(); ++c)
                correct[c] += stats[c].correct;
        }
        EXPECT_EQ(growths, final_cfg.l1_bits - initial.l1_bits);
        ASSERT_EQ(grown.l1Entries(), built.l1Entries());
        for (std::size_t c = 0; c < want.size(); ++c)
            EXPECT_EQ(correct[c], want[c].correct) << "column " << c;
        for (std::size_t e = 0; e < built.l1Entries(); ++e) {
            ASSERT_TRUE(std::ranges::equal(grown.entryHists(e),
                                           built.entryHists(e)))
                    << "entry " << e;
            ASSERT_EQ(grown.lastValue(e), built.lastValue(e))
                    << "entry " << e;
        }
    }
}

TEST(MultiGeomKernel, DfcmGrowEntriesPastCapThrows)
{
    // Past 2^28 entries the table must refuse loudly, before it
    // allocates or changes anything — never wrap the index.
    MultiGeomDfcmKernel kernel({.l1_bits = 2,
                                .value_bits = 32,
                                .stride_bits = 32,
                                .hash_shift = 5,
                                .l2_bits = {4}});
    EXPECT_THROW(kernel.growEntries(
                         (std::size_t{1} << MultiGeomKernelBase::kMaxL1Bits)
                         + 1),
                 std::length_error);
    EXPECT_EQ(kernel.l1Entries(), 4u);
    kernel.growEntries(3);  // already fits: no-op
    EXPECT_EQ(kernel.l1Entries(), 4u);
}

TEST(MultiGeomKernel, FcmChunkedFeedMatchesSingleRun)
{
    const ValueTrace trace = adversarialTrace();
    const MultiGeomConfig cfg{.l1_bits = 6,
                              .value_bits = 32,
                              .stride_bits = 32,
                              .hash_shift = 5,
                              .l2_bits = {4, 10}};
    MultiGeomFcmKernel whole(cfg);
    const std::vector<PredictorStats> ref = whole.runTrace(trace);

    MultiGeomFcmKernel chunked(cfg);
    chunked.reset();
    std::vector<std::uint64_t> correct(cfg.l2_bits.size(), 0);
    const std::size_t half = trace.size() / 2;
    const std::span<const TraceRecord> span(trace);
    for (const auto part : {span.subspan(0, half), span.subspan(half)})
        for (std::size_t c = 0; const PredictorStats& s :
                                chunked.feedTrace(part))
            correct[c++] += s.correct;

    for (std::size_t c = 0; c < ref.size(); ++c)
        EXPECT_EQ(correct[c], ref[c].correct) << "column " << c;
    for (std::size_t e = 0; e < whole.l1Entries(); ++e)
        ASSERT_TRUE(std::ranges::equal(whole.entryHists(e),
                                       chunked.entryHists(e)));
}

TEST(BatchPlan, GroupsFig10GridIntoTwoColumns)
{
    const auto configs = fig10Grid();
    const harness::BatchPlan plan =
            harness::planBatchSweep(configs, /*enabled=*/true);
    ASSERT_EQ(plan.groups.size(), 2u);
    EXPECT_TRUE(plan.singles.empty());
    EXPECT_EQ(plan.batchedConfigs(), configs.size());
    for (const harness::BatchGroup& g : plan.groups) {
        EXPECT_EQ(g.geom.l2_bits.size(), harness::paperL2Bits().size());
        for (std::size_t j = 0; j < g.config_indices.size(); ++j) {
            const PredictorConfig& c = configs[g.config_indices[j]];
            EXPECT_EQ(c.kind, g.kind);
            EXPECT_EQ(c.l2_bits, g.geom.l2_bits[j]);
        }
    }

    const harness::BatchPlan off =
            harness::planBatchSweep(configs, /*enabled=*/false);
    EXPECT_TRUE(off.groups.empty());
    EXPECT_EQ(off.singles.size(), configs.size());
}

TEST(BatchPlan, LeavesUnbatchableConfigsAlone)
{
    std::vector<PredictorConfig> configs = fig10Grid();
    PredictorConfig delayed = configs[0];
    delayed.update_delay = 32;           // wrapped: virtual path
    configs.push_back(delayed);
    PredictorConfig stride;
    stride.kind = PredictorKind::Stride; // no multi-geometry kernel
    configs.push_back(stride);
    PredictorConfig lone = configs[1];
    lone.l1_bits = 4;                    // a one-column group
    configs.push_back(lone);
    PredictorConfig wide = configs[0];
    wide.value_bits = 64;                // wider than narrow storage
    configs.push_back(wide);

    const harness::BatchPlan plan =
            harness::planBatchSweep(configs, /*enabled=*/true);
    ASSERT_EQ(plan.groups.size(), 2u);
    EXPECT_EQ(plan.batchedConfigs(), fig10Grid().size());
    EXPECT_EQ(plan.singles.size(), 4u);
}

/** RAII environment-variable override. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        const char* old = std::getenv(name);
        had_old_ = old != nullptr;
        if (had_old_)
            old_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (had_old_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char* name_;
    std::string old_;
    bool had_old_ = false;
};

void
expectSameResults(const std::vector<harness::SuiteResult>& got,
                  const std::vector<harness::SuiteResult>& want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(want[i].predictor);
        EXPECT_EQ(got[i].predictor, want[i].predictor);
        EXPECT_EQ(got[i].storage_bits, want[i].storage_bits);
        EXPECT_EQ(got[i].total, want[i].total);
        ASSERT_EQ(got[i].per_workload.size(),
                  want[i].per_workload.size());
        for (std::size_t w = 0; w < got[i].per_workload.size(); ++w) {
            EXPECT_EQ(got[i].per_workload[w].workload,
                      want[i].per_workload[w].workload);
            EXPECT_EQ(got[i].per_workload[w].stats,
                      want[i].per_workload[w].stats);
            EXPECT_EQ(got[i].per_workload[w].storage_bits,
                      want[i].per_workload[w].storage_bits);
        }
    }
}

TEST(BatchSweep, Fig10GridMatchesPerConfigOnAllPaperWorkloads)
{
    // Reduced trace scale: full equivalence coverage as a fast smoke.
    harness::TraceCache cache(0.1);
    harness::ParallelSweep sweep(cache);
    const auto configs = fig10Grid();

    std::vector<harness::SuiteResult> batched, unbatched;
    {
        ScopedEnv on("REPRO_BATCH_SWEEP", "1");
        batched = sweep.runGrid(configs);
        const harness::SweepExecution& e = sweep.lastExecution();
        EXPECT_EQ(e.path(), "multi-geometry");
        EXPECT_EQ(e.batched_cells, e.cells);
        EXPECT_LT(e.trace_walks, e.cells);
        // The report names the backend the column kernel dispatched.
        EXPECT_EQ(e.simd_backend, simdBackendName(bestSimdBackend()));
        EXPECT_EQ(e.vector_width, simdVectorBits(bestSimdBackend()));
    }
    {
        ScopedEnv off("REPRO_BATCH_SWEEP", "0");
        unbatched = sweep.runGrid(configs);
        const harness::SweepExecution& e = sweep.lastExecution();
        EXPECT_EQ(e.path(), "fused");
        EXPECT_EQ(e.batched_cells, 0u);
        EXPECT_EQ(e.trace_walks, e.cells);
        EXPECT_EQ(e.simd_backend, "scalar");
    }
    expectSameResults(batched, unbatched);
}

TEST(BatchSweep, ExecutionReportCoversVirtualPath)
{
    harness::TraceCache cache(0.02);
    harness::ParallelSweep sweep(cache);
    PredictorConfig delayed;
    delayed.kind = PredictorKind::Fcm;
    delayed.l1_bits = 8;
    delayed.l2_bits = 8;
    delayed.update_delay = 16;  // wrapper keeps the virtual path
    const std::vector<std::string> one_workload = {"go"};
    sweep.runGrid({delayed}, one_workload);
    const harness::SweepExecution& e = sweep.lastExecution();
    EXPECT_EQ(e.path(), "virtual");
    EXPECT_EQ(e.cells, 1u);
    EXPECT_EQ(e.virtual_cells, 1u);
    EXPECT_EQ(e.trace_walks, 1u);
    EXPECT_GT(e.wall_seconds, 0.0);
}

} // namespace
