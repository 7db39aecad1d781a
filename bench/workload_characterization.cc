/**
 * @file
 * Workload characterization (supports DESIGN.md §2's substitution
 * argument): for every kernel, the fraction of predicted values
 * that are constant (last-value hit), stride-predictable (side
 * stride predictor hit), context-predictable (large FCM hit while
 * not stride) and hard (none of the above). The paper's effects
 * need a population with all four kinds; this table shows each
 * kernel's mix.
 */

#include "bench_util.hh"

#include <set>

#include "core/fcm_predictor.hh"
#include "core/last_value_predictor.hh"
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
    bench::Banner banner("characterization",
                         "value-pattern mix per workload");

    harness::TraceCache cache;
    harness::ParallelSweep sweep(cache);
    const std::vector<workloads::Workload>& all = workloads::allWorkloads();

    // One cell per workload: how many records fall in each class.
    struct Mix
    {
        std::uint64_t constant = 0, stride_only = 0, context_only = 0,
                      both = 0, hard = 0, records = 0, static_pcs = 0;
    };
    const std::vector<Mix> cells = sweep.map(all.size(), [&](std::size_t i) {
        const std::span<const TraceRecord> trace = cache.getSpan(all[i].name);
        LastValuePredictor lvp(16);
        StridePredictor stride(16);
        FcmPredictor fcm({.l1_bits = 16, .l2_bits = 18,
                          .value_bits = 32, .hash = {}});
        Mix m;
        std::set<Pc> pcs;
        for (const TraceRecord& rec : trace) {
            pcs.insert(rec.pc);
            const bool c = lvp.predict(rec.pc) == rec.value;
            const bool s = stride.predict(rec.pc) == rec.value;
            const bool x = fcm.predict(rec.pc) == rec.value;
            if (c)
                ++m.constant;
            else if (s && x)
                ++m.both;
            else if (s)
                ++m.stride_only;
            else if (x)
                ++m.context_only;
            else
                ++m.hard;
            lvp.update(rec.pc, rec.value);
            stride.update(rec.pc, rec.value);
            fcm.update(rec.pc, rec.value);
        }
        m.records = trace.size();
        m.static_pcs = pcs.size();
        return m;
    });

    TablePrinter table({"workload", "constant", "stride_only",
                        "context_only", "both", "hard", "static_pcs"});
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Mix& m = cells[i];
        const double n = static_cast<double>(m.records);
        table.addRow({all[i].name,
                      TablePrinter::fmt(static_cast<double>(m.constant) / n,
                                        3),
                      TablePrinter::fmt(
                              static_cast<double>(m.stride_only) / n, 3),
                      TablePrinter::fmt(
                              static_cast<double>(m.context_only) / n, 3),
                      TablePrinter::fmt(static_cast<double>(m.both) / n, 3),
                      TablePrinter::fmt(static_cast<double>(m.hard) / n, 3),
                      TablePrinter::fmt(m.static_pcs)});
    }

    table.print(std::cout);
    table.writeCsv("workload_characterization");
    std::cout << "\nconstant: last-value hit; stride_only/context_only: "
              << "only that detector hit;\nboth: stride and context "
              << "detectors hit; hard: nothing hit.\n";
    return 0;
}
