/**
 * @file
 * Figure 12 reproduction: prediction accuracy per aliasing type
 * (FCM, 2^12-entry level-1 and level-2 tables, suite aggregate).
 *
 * Paper shape: l1 and hash aliasing have very low accuracy; none and
 * l2_pc are highly accurate; l2_priv sits above 50%.
 */

#include "bench_util.hh"

#include "core/alias_analysis.hh"
#include "harness/parallel_sweep.hh"
#include "harness/table_printer.hh"
#include "harness/trace_cache.hh"
#include "workloads/workload.hh"

int
main()
{
    using namespace vpred;
    using harness::TablePrinter;
    bench::Banner banner("fig12", "accuracy per aliasing type (FCM)");

    harness::TraceCache cache;
    harness::ParallelSweep sweep(cache);
    const std::vector<std::string>& names = workloads::benchmarkNames();
    FcmConfig cfg;
    cfg.l1_bits = 12;
    cfg.l2_bits = 12;

    // One cell per workload.
    const std::vector<AliasBreakdown> cells =
            sweep.map(names.size(), [&](std::size_t w) {
                AliasAnalyzer analyzer(cfg, /*differential=*/false);
                return analyzer.run(cache.getSpan(names[w]));
            });
    AliasBreakdown total;
    for (const AliasBreakdown& b : cells)
        total += b;

    TablePrinter table({"aliasing_type", "fraction", "accuracy",
                        "predictions"});
    for (unsigned t = 0; t < kAliasTypeCount; ++t) {
        const auto type = static_cast<AliasType>(t);
        const PredictorStats& s = total[type];
        table.addRow({aliasTypeName(type),
                      TablePrinter::fmt(
                              total.fractionOfPredictions(type), 3),
                      TablePrinter::fmt(s.accuracy()),
                      TablePrinter::fmt(s.predictions)});
    }
    table.print(std::cout);
    table.writeCsv("fig12_alias_accuracy");
    return 0;
}
