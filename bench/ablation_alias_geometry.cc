/**
 * @file
 * Ablation: how the aliasing mix (Figure 13's taxonomy) shifts with
 * the level-2 table size. The paper measures one geometry
 * (2^12/2^12); this sweep shows hash aliasing draining away as the
 * level-2 table grows — the mechanism behind Figure 10's shrinking
 * FCM/DFCM gap.
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
    bench::Banner banner("ablation_alias_geometry",
                         "aliasing mix vs level-2 size");

    harness::TraceCache cache;
    harness::ParallelSweep sweep(cache);
    const std::vector<std::string>& names = workloads::benchmarkNames();
    const unsigned l2s[] = {8u, 10u, 12u, 14u, 16u};
    const std::size_t columns = 2 * std::size(l2s);

    // One cell per (fcm/dfcm, l2, workload).
    const std::vector<AliasBreakdown> cells = sweep.map(
            columns * names.size(), [&](std::size_t i) {
                const std::size_t c = i / names.size();
                FcmConfig cfg;
                cfg.l1_bits = 12;
                cfg.l2_bits = l2s[c % std::size(l2s)];
                AliasAnalyzer analyzer(cfg, c >= std::size(l2s));
                return analyzer.run(cache.getSpan(names[i % names.size()]));
            });

    TablePrinter table({"predictor", "l2_bits", "hash_frac",
                        "l2_pc_frac", "none_frac", "accuracy"});
    for (std::size_t c = 0; c < columns; ++c) {
        AliasBreakdown total;
        for (std::size_t w = 0; w < names.size(); ++w)
            total += cells[c * names.size() + w];
        table.addRow(
                {c >= std::size(l2s) ? "dfcm" : "fcm",
                 TablePrinter::fmt(std::uint64_t{l2s[c % std::size(l2s)]}),
                 TablePrinter::fmt(
                         total.fractionOfPredictions(AliasType::Hash), 3),
                 TablePrinter::fmt(
                         total.fractionOfPredictions(AliasType::L2Pc), 3),
                 TablePrinter::fmt(
                         total.fractionOfPredictions(AliasType::None), 3),
                 TablePrinter::fmt(total.total().accuracy())});
    }

    table.print(std::cout);
    table.writeCsv("ablation_alias_geometry");
    return 0;
}
