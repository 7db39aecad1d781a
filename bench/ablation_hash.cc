/**
 * @file
 * Ablation (beyond the paper's figures): sensitivity of the FCM and
 * DFCM to the history hash function. The paper adopts Sazeides'
 * FS R-5 as "(near) optimal" for the FCM and deliberately does not
 * re-tune it for the DFCM; this table quantifies how much the shift
 * distance (and hence the order) matters for both predictors.
 */

#include "bench_util.hh"

#include "harness/experiment.hh"
#include "harness/parallel_sweep.hh"
#include "harness/table_printer.hh"

int
main()
{
    using namespace vpred;
    using harness::TablePrinter;
    bench::Banner banner("ablation_hash",
                         "FS R-k hash shift sensitivity");

    harness::TraceCache cache;
    harness::ParallelSweep sweep(cache);
    const unsigned shifts[] = {2u, 3u, 4u, 5u, 6u, 8u, 12u};
    std::vector<PredictorConfig> configs;
    for (unsigned shift : shifts) {
        PredictorConfig cfg;
        cfg.l1_bits = 16;
        cfg.l2_bits = 12;
        cfg.hash_shift = shift;
        cfg.kind = PredictorKind::Fcm;
        configs.push_back(cfg);
        cfg.kind = PredictorKind::Dfcm;
        configs.push_back(cfg);
    }
    const std::vector<harness::SuiteResult> results =
            sweep.runGrid(configs);
    bench::reportExecution(sweep.lastExecution());

    TablePrinter table({"hash", "order", "fcm", "dfcm"});
    for (std::size_t s = 0; s < std::size(shifts); ++s) {
        const unsigned shift = shifts[s];
        table.addRow({"FS R-" + std::to_string(shift),
                      TablePrinter::fmt(std::uint64_t{(12 + shift - 1)
                                                      / shift}),
                      TablePrinter::fmt(results[2 * s].accuracy()),
                      TablePrinter::fmt(results[2 * s + 1].accuracy())});
    }

    table.print(std::cout);
    table.writeCsv("ablation_hash");
    return 0;
}
