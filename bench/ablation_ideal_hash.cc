/**
 * @file
 * Ablation: how much is left on the table for better hashing? The
 * paper's Section 4.2 ends with "the hashing function remains
 * responsible for the majority of the mispredictions (59%), there
 * is still plenty of room for improvement." This bench compares the
 * real hashed FCM/DFCM against ideal-index variants (unbounded,
 * collision-free level-2 lookup at the same order) — the upper
 * bound any hash/table organization could reach.
 */

#include "bench_util.hh"

#include "core/dfcm_predictor.hh"
#include "core/fcm_predictor.hh"
#include "core/ideal_context_predictor.hh"
#include "core/stats.hh"
#include "harness/parallel_sweep.hh"
#include "harness/table_printer.hh"
#include "harness/trace_cache.hh"
#include "workloads/workload.hh"

int
main()
{
    using namespace vpred;
    using harness::TablePrinter;
    bench::Banner banner("ablation_ideal_hash",
                         "hashed vs ideal-index context predictors");

    harness::TraceCache cache;
    harness::ParallelSweep sweep(cache);
    const std::vector<std::string>& names = workloads::benchmarkNames();
    const unsigned l2s[] = {10u, 12u, 16u};
    // fcm, ideal_fcm, dfcm, ideal_dfcm: the table's columns.
    constexpr std::size_t kPredictors = 4;
    auto orderOf = [](unsigned l2) {
        return FcmConfig{.l1_bits = 16, .l2_bits = l2}.resolvedHash().order();
    };

    // One cell per (l2, predictor, workload), workload-minor: the
    // largest exact tables (vortex's, about 1M contexts each) belong
    // to the two ideal predictors, and this order puts their cells 16
    // apart instead of side by side, so they do not grow at the same
    // time. Peak RSS at 4 jobs: 371-394 MiB against 435-475 MiB in
    // predictor-minor order.
    const std::vector<PredictorStats> cells = sweep.map(
            std::size(l2s) * kPredictors * names.size(),
            [&](std::size_t i) {
                const unsigned l2 = l2s[i / (kPredictors * names.size())];
                const std::span<const TraceRecord> trace =
                        cache.getSpan(names[i % names.size()]);
                switch (i / names.size() % kPredictors) {
                  case 0: {
                    FcmPredictor p({.l1_bits = 16, .l2_bits = l2,
                                    .value_bits = 32, .hash = {}});
                    return runTrace(p, trace);
                  }
                  case 1: {
                    IdealContextPredictor p(16, orderOf(l2), false);
                    return runTrace(p, trace);
                  }
                  case 2: {
                    DfcmPredictor p({.l1_bits = 16, .l2_bits = l2});
                    return runTrace(p, trace);
                  }
                  default: {
                    IdealContextPredictor p(16, orderOf(l2), true);
                    return runTrace(p, trace);
                  }
                }
            });

    TablePrinter table({"l2_bits", "order", "fcm", "ideal_fcm", "dfcm",
                        "ideal_dfcm"});
    for (std::size_t l = 0; l < std::size(l2s); ++l) {
        PredictorStats totals[kPredictors];
        for (std::size_t w = 0; w < names.size(); ++w) {
            for (std::size_t k = 0; k < kPredictors; ++k)
                totals[k] += cells[(l * kPredictors + k) * names.size() + w];
        }
        table.addRow({TablePrinter::fmt(std::uint64_t{l2s[l]}),
                      TablePrinter::fmt(std::uint64_t{orderOf(l2s[l])}),
                      TablePrinter::fmt(totals[0].accuracy()),
                      TablePrinter::fmt(totals[1].accuracy()),
                      TablePrinter::fmt(totals[2].accuracy()),
                      TablePrinter::fmt(totals[3].accuracy())});
    }

    table.print(std::cout);
    table.writeCsv("ablation_ideal_hash");
    std::cout << "\nideal_* = unbounded collision-free level-2 lookup "
              << "at the same order: the headroom\nthe paper says "
              << "remains for better hashing/tagging.\n";
    return 0;
}
