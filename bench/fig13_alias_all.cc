/**
 * @file
 * Figure 13 reproduction: aliasing-type fractions over *all*
 * predictions, per benchmark plus the weighted average, for the FCM
 * and the DFCM (2^12-entry level-1 and level-2).
 *
 * Paper shape: hash and l2_pc are the most common types; "no
 * aliasing at all is rather seldom"; the DFCM shows *more* l2_pc
 * (almost twice) and less hash aliasing, with even fewer "none"
 * cases.
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
    bench::Banner banner("fig13",
                         "aliasing-type fractions, all predictions");

    harness::TraceCache cache;
    harness::ParallelSweep sweep(cache);
    const std::vector<std::string>& names = workloads::benchmarkNames();
    FcmConfig cfg;
    cfg.l1_bits = 12;
    cfg.l2_bits = 12;

    // One cell per (fcm/dfcm, workload).
    const std::vector<AliasBreakdown> cells =
            sweep.map(2 * names.size(), [&](std::size_t i) {
                AliasAnalyzer analyzer(cfg, i >= names.size());
                return analyzer.run(
                        cache.getSpan(names[i % names.size()]));
            });

    TablePrinter table({"predictor", "benchmark", "l1", "hash",
                        "l2_priv", "l2_pc", "none"});

    for (const bool differential : {false, true}) {
        const char* pname = differential ? "dfcm" : "fcm";
        AliasBreakdown avg;
        for (std::size_t w = 0; w < names.size(); ++w) {
            const std::string& name = names[w];
            const AliasBreakdown& b =
                    cells[(differential ? names.size() : 0) + w];
            avg += b;
            table.addRow(
                    {pname, name,
                     TablePrinter::fmt(
                             b.fractionOfPredictions(AliasType::L1), 3),
                     TablePrinter::fmt(
                             b.fractionOfPredictions(AliasType::Hash), 3),
                     TablePrinter::fmt(
                             b.fractionOfPredictions(AliasType::L2Priv),
                             3),
                     TablePrinter::fmt(
                             b.fractionOfPredictions(AliasType::L2Pc), 3),
                     TablePrinter::fmt(
                             b.fractionOfPredictions(AliasType::None),
                             3)});
        }
        table.addRow(
                {pname, "avg",
                 TablePrinter::fmt(
                         avg.fractionOfPredictions(AliasType::L1), 3),
                 TablePrinter::fmt(
                         avg.fractionOfPredictions(AliasType::Hash), 3),
                 TablePrinter::fmt(
                         avg.fractionOfPredictions(AliasType::L2Priv), 3),
                 TablePrinter::fmt(
                         avg.fractionOfPredictions(AliasType::L2Pc), 3),
                 TablePrinter::fmt(
                         avg.fractionOfPredictions(AliasType::None), 3)});
    }

    table.print(std::cout);
    table.writeCsv("fig13_alias_all");
    return 0;
}
