/**
 * @file
 * Motivation experiment (the paper's Section 1 claim, following
 * Lipasti [10] and Gonzalez & Gonzalez [8]): value prediction pushes
 * the dataflow limit imposed by true register dependences.
 *
 * For every benchmark: dataflow-limit ILP (unbounded resources,
 * unit latency, perfect control) with no value prediction, with a
 * stride predictor, with the DFCM, and with a perfect predictor.
 * Expected shape: ILP(none) < ILP(stride) < ILP(dfcm) < ILP(perfect)
 * — more accurate predictors break more true dependences.
 */

#include "bench_util.hh"

#include <array>

#include "core/dfcm_predictor.hh"
#include "core/stride_predictor.hh"
#include "harness/parallel_sweep.hh"
#include "harness/table_printer.hh"
#include "sim/assembler.hh"
#include "sim/dataflow.hh"
#include "workloads/workload.hh"

int
main()
{
    using namespace vpred;
    using harness::TablePrinter;
    bench::Banner banner("ilp_limit",
                         "dataflow-limit ILP with value prediction");

    // The analyzer re-executes the VM per model, so use a reduced
    // scale; dependence structure is scale-invariant.
    const double scale = 0.25 * harness::envTraceScale();

    harness::TraceCache cache;  // unused: the cells re-execute the VM
    harness::ParallelSweep sweep(cache);
    const std::vector<std::string>& names = workloads::benchmarkNames();

    // One cell per workload: no prediction, stride, DFCM, perfect.
    const std::vector<std::array<sim::IlpResult, 4>> cells =
            sweep.map(names.size(), [&](std::size_t i) {
                const auto& w = workloads::findWorkload(names[i]);
                const sim::Program program = sim::assemble(w.assembly);
                const auto reps = static_cast<std::uint32_t>(
                        std::max(1.0, w.default_scale * scale));
                const std::pair<unsigned, std::uint32_t> init[] = {
                    {sim::reg::a0, reps},
                };

                auto run = [&](sim::PredictionModel model,
                               ValuePredictor* predictor) {
                    return sim::dataflowLimit(program, model, predictor,
                                              w.max_steps, init);
                };
                StridePredictor stride(16);
                DfcmPredictor dfcm({.l1_bits = 16, .l2_bits = 12});
                return std::array<sim::IlpResult, 4>{
                        run(sim::PredictionModel::None, nullptr),
                        run(sim::PredictionModel::Real, &stride),
                        run(sim::PredictionModel::Real, &dfcm),
                        run(sim::PredictionModel::Perfect, nullptr)};
            });

    TablePrinter table({"benchmark", "ilp_none", "ilp_stride",
                        "ilp_dfcm", "ilp_perfect", "dfcm_acc"});
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto& [none, with_stride, with_dfcm, perfect] = cells[i];
        table.addRow({names[i], TablePrinter::fmt(none.ilp(), 2),
                      TablePrinter::fmt(with_stride.ilp(), 2),
                      TablePrinter::fmt(with_dfcm.ilp(), 2),
                      TablePrinter::fmt(perfect.ilp(), 2),
                      TablePrinter::fmt(with_dfcm.accuracy(), 3)});
    }

    table.print(std::cout);
    table.writeCsv("ilp_limit");
    std::cout << "\nDataflow-limit model: unbounded resources, unit "
              << "latency, perfect control prediction;\ncorrectly "
              << "predicted values available at fetch. Not a pipeline "
              << "simulation —\nthe paper's Section 4 deliberately "
              << "evaluates predictors in isolation.\n";
    return 0;
}
