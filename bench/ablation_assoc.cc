/**
 * @file
 * Ablation: spending the paper's level-2 bits on associativity and
 * partial tags instead of more direct-mapped entries. Section 4.2
 * attributes most remaining DFCM mispredictions to hash aliasing;
 * a tagged set-associative level-2 detects those conflicts and
 * falls back to a last-value prediction instead of consuming a
 * colliding stride.
 *
 * Rows compare (direct-mapped, untagged) DFCM against 2/4-way
 * tagged organizations at similar storage.
 */

#include "bench_util.hh"

#include "core/assoc_dfcm_predictor.hh"
#include "core/dfcm_predictor.hh"
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
    bench::Banner banner("ablation_assoc",
                         "tagged set-associative level-2 for the DFCM");

    harness::TraceCache cache;
    harness::ParallelSweep sweep(cache);
    const std::vector<std::string>& names = workloads::benchmarkNames();

    // Baseline: the paper's direct-mapped untagged DFCM. Then the
    // tagged associative organizations.
    const unsigned direct_l2s[] = {10u, 12u};
    const AssocDfcmConfig assoc_configs[] = {
        {.l1_bits = 16, .set_bits = 9, .ways = 2, .tag_bits = 6},
        {.l1_bits = 16, .set_bits = 8, .ways = 4, .tag_bits = 6},
        {.l1_bits = 16, .set_bits = 11, .ways = 2, .tag_bits = 6},
        {.l1_bits = 16, .set_bits = 10, .ways = 4, .tag_bits = 6},
    };
    const std::size_t n_direct = std::size(direct_l2s);
    auto directConfig = [&](std::size_t org) {
        DfcmConfig cfg;
        cfg.l1_bits = 16;
        cfg.l2_bits = direct_l2s[org];
        return cfg;
    };

    // One cell per (organization, workload).
    struct Cell
    {
        PredictorStats stats;
        double tag_hit_rate = 0;  //!< associative organizations only
    };
    const std::vector<Cell> cells = sweep.map(
            (n_direct + std::size(assoc_configs)) * names.size(),
            [&](std::size_t i) {
                const std::size_t org = i / names.size();
                const std::span<const TraceRecord> trace =
                        cache.getSpan(names[i % names.size()]);
                if (org < n_direct) {
                    DfcmPredictor p(directConfig(org));
                    return Cell{runTrace(p, trace)};
                }
                AssocDfcmPredictor p(assoc_configs[org - n_direct]);
                const PredictorStats stats = runTrace(p, trace);
                return Cell{stats, p.hitRate()};
            });

    TablePrinter table({"organization", "size_kbit", "accuracy",
                        "tag_hit_rate"});
    for (std::size_t org = 0; org < n_direct + std::size(assoc_configs);
         ++org) {
        PredictorStats total;
        double hit = 0;
        for (std::size_t w = 0; w < names.size(); ++w) {
            total += cells[org * names.size() + w].stats;
            hit += cells[org * names.size() + w].tag_hit_rate;
        }
        if (org < n_direct) {
            table.addRow({"direct 2^" + std::to_string(direct_l2s[org]),
                          TablePrinter::fmt(
                                  DfcmPredictor(directConfig(org))
                                          .storageKbit(),
                                  1),
                          TablePrinter::fmt(total.accuracy()), "-"});
        } else {
            const AssocDfcmPredictor p(assoc_configs[org - n_direct]);
            table.addRow({p.name(), TablePrinter::fmt(p.storageKbit(), 1),
                          TablePrinter::fmt(total.accuracy()),
                          TablePrinter::fmt(
                                  hit / static_cast<double>(names.size()),
                                  3)});
        }
    }

    table.print(std::cout);
    table.writeCsv("ablation_assoc");
    return 0;
}
