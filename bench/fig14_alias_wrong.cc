/**
 * @file
 * Figure 14 reproduction: aliasing types of *mispredictions*, as a
 * fraction of all predictions (so each row sums to the benchmark's
 * misprediction rate), FCM and DFCM at 2^12/2^12.
 *
 * Paper shape: only l1, hash and l2_priv matter, hash dominates;
 * the DFCM's hash share drops (34% -> 25% on average) and the total
 * misprediction rate drops by almost the same amount.
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
    bench::Banner banner("fig14",
                         "aliasing-type fractions of mispredictions");

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
                        "l2_priv", "l2_pc", "none", "total_wrong"});
    double fcm_hash_avg = 0, dfcm_hash_avg = 0;
    double fcm_wrong_avg = 0, dfcm_wrong_avg = 0;

    for (const bool differential : {false, true}) {
        const char* pname = differential ? "dfcm" : "fcm";
        AliasBreakdown avg;
        for (std::size_t w = 0; w < names.size(); ++w) {
            const std::string& name = names[w];
            const AliasBreakdown& b =
                    cells[(differential ? names.size() : 0) + w];
            avg += b;
            double total_wrong = 0;
            for (unsigned t = 0; t < kAliasTypeCount; ++t)
                total_wrong += b.fractionWrong(static_cast<AliasType>(t));
            table.addRow(
                    {pname, name,
                     TablePrinter::fmt(b.fractionWrong(AliasType::L1), 3),
                     TablePrinter::fmt(b.fractionWrong(AliasType::Hash),
                                       3),
                     TablePrinter::fmt(
                             b.fractionWrong(AliasType::L2Priv), 3),
                     TablePrinter::fmt(b.fractionWrong(AliasType::L2Pc),
                                       3),
                     TablePrinter::fmt(b.fractionWrong(AliasType::None),
                                       3),
                     TablePrinter::fmt(total_wrong, 3)});
        }
        double avg_wrong = 0;
        for (unsigned t = 0; t < kAliasTypeCount; ++t)
            avg_wrong += avg.fractionWrong(static_cast<AliasType>(t));
        table.addRow(
                {pname, "avg",
                 TablePrinter::fmt(avg.fractionWrong(AliasType::L1), 3),
                 TablePrinter::fmt(avg.fractionWrong(AliasType::Hash), 3),
                 TablePrinter::fmt(avg.fractionWrong(AliasType::L2Priv),
                                   3),
                 TablePrinter::fmt(avg.fractionWrong(AliasType::L2Pc), 3),
                 TablePrinter::fmt(avg.fractionWrong(AliasType::None), 3),
                 TablePrinter::fmt(avg_wrong, 3)});
        if (differential) {
            dfcm_hash_avg = avg.fractionWrong(AliasType::Hash);
            dfcm_wrong_avg = avg_wrong;
        } else {
            fcm_hash_avg = avg.fractionWrong(AliasType::Hash);
            fcm_wrong_avg = avg_wrong;
        }
    }

    table.print(std::cout);
    table.writeCsv("fig14_alias_wrong");

    std::cout << "\nhash-caused mispredictions: FCM "
              << TablePrinter::fmt(fcm_hash_avg, 3) << " -> DFCM "
              << TablePrinter::fmt(dfcm_hash_avg, 3)
              << " (paper: .34 -> .25)\n"
              << "total mispredictions:       FCM "
              << TablePrinter::fmt(fcm_wrong_avg, 3) << " -> DFCM "
              << TablePrinter::fmt(dfcm_wrong_avg, 3) << "\n"
              << "hash share of DFCM mispredictions: "
              << TablePrinter::fmt(dfcm_hash_avg / dfcm_wrong_avg, 3)
              << " (paper: .59)\n";
    return 0;
}
