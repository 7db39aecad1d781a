/**
 * @file
 * Section 4.4 reproduction: effect of narrowing the stride values
 * stored in the DFCM level-2 table.
 *
 * Paper: 16-bit strides cost .01-.03 accuracy, 8-bit strides
 * .05-.08; the saving is not worthwhile because the level-1 table
 * dominates small configurations and the level-2 size barely matters
 * for large ones. The table reports accuracy and total size at
 * several geometries so both effects are visible.
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
    bench::Banner banner("sec44", "DFCM stored-stride width");

    harness::TraceCache cache;
    harness::ParallelSweep sweep(cache);
    std::vector<PredictorConfig> configs;
    for (unsigned l1 : {12u, 16u}) {
        for (unsigned l2 : {10u, 12u, 16u}) {
            for (unsigned sb : {32u, 16u, 8u}) {
                PredictorConfig cfg;
                cfg.kind = PredictorKind::Dfcm;
                cfg.l1_bits = l1;
                cfg.l2_bits = l2;
                cfg.stride_bits = sb;
                configs.push_back(cfg);
            }
        }
    }
    const std::vector<harness::SuiteResult> results =
            sweep.runGrid(configs);
    bench::reportExecution(sweep.lastExecution());

    TablePrinter table({"l1_bits", "l2_bits", "stride_bits",
                        "size_kbit", "accuracy", "drop_vs_32"});
    double full = 0.0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const PredictorConfig& cfg = configs[i];
        const harness::SuiteResult& r = results[i];
        if (cfg.stride_bits == 32)
            full = r.accuracy();
        table.addRow({TablePrinter::fmt(std::uint64_t{cfg.l1_bits}),
                      TablePrinter::fmt(std::uint64_t{cfg.l2_bits}),
                      TablePrinter::fmt(std::uint64_t{cfg.stride_bits}),
                      TablePrinter::fmt(r.storageKbit(), 1),
                      TablePrinter::fmt(r.accuracy()),
                      TablePrinter::fmt(full - r.accuracy(), 3)});
    }

    table.print(std::cout);
    table.writeCsv("sec44_stride_width");
    return 0;
}
