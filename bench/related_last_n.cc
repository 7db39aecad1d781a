/**
 * @file
 * Related-work comparison: last-n value prediction (Burtscher and
 * Zorn, the paper's reference [2]) against the paper's predictors,
 * over the benchmark suite at matched table sizes.
 *
 * Expected shape: last-n improves clearly on the last value
 * predictor but cannot reach the stride predictor (no arithmetic
 * extrapolation) nor the context predictors.
 */

#include "bench_util.hh"

#include <functional>
#include <memory>

#include "core/dfcm_predictor.hh"
#include "core/last_n_predictor.hh"
#include "core/last_value_predictor.hh"
#include "core/stats.hh"
#include "core/stride_predictor.hh"
#include "harness/parallel_sweep.hh"
#include "harness/table_printer.hh"
#include "harness/trace_cache.hh"
#include "workloads/workload.hh"

int
main()
{
    using namespace vpred;
    using harness::TablePrinter;
    bench::Banner banner("related_last_n",
                         "last-n value prediction vs paper predictors");

    harness::TraceCache cache;
    harness::ParallelSweep sweep(cache);
    const std::vector<std::function<std::unique_ptr<ValuePredictor>()>>
            makers = {
        [] { return std::make_unique<LastValuePredictor>(16); },
        [] { return std::make_unique<LastNPredictor>(16, 2); },
        [] { return std::make_unique<LastNPredictor>(16, 4); },
        [] { return std::make_unique<LastNPredictor>(16, 8); },
        [] { return std::make_unique<StridePredictor>(16); },
        [] {
            return std::make_unique<DfcmPredictor>(
                    DfcmConfig{.l1_bits = 16, .l2_bits = 12});
        },
    };

    // One cell per predictor. Its state deliberately carries across
    // the benchmarks in series, like one long trace; the tables are
    // large enough that cross-benchmark pollution is negligible.
    const std::vector<PredictorStats> cells =
            sweep.map(makers.size(), [&](std::size_t i) {
                const std::unique_ptr<ValuePredictor> p = makers[i]();
                PredictorStats total;
                for (const std::string& name : workloads::benchmarkNames())
                    total += runTrace(*p, cache.getSpan(name));
                return total;
            });

    TablePrinter table({"predictor", "size_kbit", "accuracy"});
    for (std::size_t i = 0; i < makers.size(); ++i) {
        const std::unique_ptr<ValuePredictor> p = makers[i]();
        table.addRow({p->name(), TablePrinter::fmt(p->storageKbit(), 1),
                      TablePrinter::fmt(cells[i].accuracy())});
    }

    table.print(std::cout);
    table.writeCsv("related_last_n");
    return 0;
}
