/**
 * @file
 * Layer probes of the benchmark: timed calls into the repository's
 * public functions, one span per call, reported as per-layer metrics.
 *
 *   perfbench_layer_probe populate --store DIR
 *       Populate a cold trace store with every workload's trace
 *       (TraceCache::prewarm) and print {"seconds": ..., "generated":
 *       ...}. This is the set-up of the figures workload.
 *
 *   perfbench_layer_probe probe --store DIR --scratch DIR --groups G,...
 *       [--spans FILE]
 *       Run the named probe groups and print {"metrics": {...}}:
 *         kernels      core.<family>.records_per_s for the fifteen
 *                      predictor families over the eight paper traces
 *         mg_dfcm      core.multi_geom_dfcm.records_per_s only
 *         sweep        harness.parallel_sweep.* on the Figure 10 grid
 *         acquisition  sim.instr_per_s (workloads::runWorkload) and
 *                      harness.trace_store.* (prewarm, cold then warm)
 *       --store names a populated store the kernels read from;
 *       --scratch is emptied and used for the cold-store probe.
 */

#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/alias_analysis.hh"
#include "core/assoc_dfcm_predictor.hh"
#include "core/confidence_dfcm.hh"
#include "core/dfcm_predictor.hh"
#include "core/ideal_context_predictor.hh"
#include "core/last_n_predictor.hh"
#include "core/multi_geom.hh"
#include "core/predictor_factory.hh"
#include "core/stats.hh"
#include "core/stride_occupancy.hh"
#include "harness/parallel_sweep.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"
#include "workloads/workload.hh"

namespace
{

using perfbench::nowNs;
using perfbench::secondsBetween;
using perfbench::SpanLog;
using vpred::TraceRecord;
using Trace = std::span<const TraceRecord>;

/** Runs one family over one trace from power-on state and returns a
 *  result-dependent number, so the work cannot be optimized away. */
using FamilyRun = std::function<std::uint64_t(Trace)>;

std::uint64_t
viaFactory(const vpred::PredictorConfig& cfg, Trace t)
{
    auto p = vpred::makePredictor(cfg);
    return vpred::runTrace(*p, t).correct;
}

vpred::PredictorConfig
config(vpred::PredictorKind kind, unsigned update_delay = 0)
{
    vpred::PredictorConfig c;
    c.kind = kind;
    c.l1_bits = 16;
    c.l2_bits = 12;
    c.update_delay = update_delay;
    return c;
}

vpred::MultiGeomConfig
fig10Column()
{
    vpred::MultiGeomConfig c;
    c.l1_bits = 16;
    c.l2_bits = vpred::harness::paperL2Bits();
    return c;
}

std::uint64_t
sumCorrect(const std::vector<vpred::PredictorStats>& cols)
{
    std::uint64_t n = 0;
    for (const auto& s : cols)
        n += s.correct;
    return n;
}

/** The fifteen predictor families the figure drivers run, each at a
 *  geometry those drivers use (level-1 2^16, level-2 2^12), by span
 *  name. */
std::vector<std::pair<const char*, FamilyRun>>
families()
{
    using vpred::PredictorKind;
    return {
        {"core.lvp", [](Trace t) { return viaFactory(config(PredictorKind::Lvp), t); }},
        {"core.stride",
         [](Trace t) { return viaFactory(config(PredictorKind::Stride), t); }},
        {"core.fcm", [](Trace t) { return viaFactory(config(PredictorKind::Fcm), t); }},
        {"core.dfcm",
         [](Trace t) { return viaFactory(config(PredictorKind::Dfcm), t); }},
        {"core.ideal_fcm",
         [](Trace t) {
             vpred::IdealContextPredictor p(16, 3, false);
             return vpred::runTrace(p, t).correct;
         }},
        {"core.ideal_dfcm",
         [](Trace t) {
             vpred::IdealContextPredictor p(16, 3, true);
             return vpred::runTrace(p, t).correct;
         }},
        {"core.hybrid",
         [](Trace t) {
             return viaFactory(config(PredictorKind::HybridStrideDfcm), t);
         }},
        {"core.confidence_dfcm",
         [](Trace t) {
             vpred::ConfidenceDfcm p(vpred::ConfidenceDfcmConfig{});
             return p.run(t).correct;
         }},
        {"core.assoc_dfcm",
         [](Trace t) {
             vpred::AssocDfcmPredictor p(vpred::AssocDfcmConfig{});
             return vpred::runTrace(p, t).correct;
         }},
        {"core.last_n",
         [](Trace t) {
             vpred::LastNPredictor p(16, 4);
             return vpred::runTrace(p, t).correct;
         }},
        {"core.delayed_update",
         [](Trace t) {
             return viaFactory(config(PredictorKind::Dfcm, 8), t);
         }},
        {"core.alias_analysis",
         [](Trace t) {
             vpred::FcmConfig c;
             c.l1_bits = 16;
             c.l2_bits = 12;
             vpred::AliasAnalyzer a(c, true);
             return a.run(t).total().correct;
         }},
        {"core.stride_occupancy",
         [](Trace t) {
             vpred::DfcmPredictor p(vpred::DfcmConfig{});
             return vpred::profileStrideOccupancy(p, t).stride_accesses;
         }},
        {"core.multi_geom_fcm",
         [](Trace t) {
             vpred::MultiGeomFcmKernel k(fig10Column());
             return sumCorrect(k.runTrace(t));
         }},
        {"core.multi_geom_dfcm",
         [](Trace t) {
             vpred::MultiGeomDfcmKernel k(fig10Column());
             return sumCorrect(k.runTrace(t));
         }},
    };
}

struct Probe
{
    SpanLog spans{0};
    perfbench::JsonObject metrics;
    std::uint64_t checksum = 0;
};

void
probeKernels(Probe& pr, vpred::harness::TraceCache& cache, bool only_mg_dfcm)
{
    const auto& names = vpred::workloads::benchmarkNames();
    std::vector<Trace> traces;
    for (const std::string& n : names)
        traces.push_back(cache.getSpan(n));
    const std::uint64_t g0 = nowNs();
    const std::uint64_t group = pr.spans.reserveId();
    for (const auto& [family, run] : families()) {
        const std::string fam = family;
        if (only_mg_dfcm && fam != "core.multi_geom_dfcm")
            continue;
        std::uint64_t records = 0;
        std::uint64_t busy_ns = 0;
        for (std::size_t i = 0; i < traces.size(); ++i) {
            const std::uint64_t t0 = nowNs();
            pr.checksum += run(traces[i]);
            const std::uint64_t t1 = nowNs();
            busy_ns += t1 - t0;
            records += traces[i].size();
            pr.spans.add(family, group, t0, t1,
                         {"records", static_cast<double>(traces[i].size())},
                         {"trace", static_cast<double>(i)});
        }
        pr.metrics.num(fam + ".records_per_s",
                       static_cast<double>(records) * 1e9
                               / static_cast<double>(busy_ns));
    }
    pr.spans.addWithId(group, "probe.kernels", 0, g0, nowNs());
}

void
probeSweep(Probe& pr, vpred::harness::TraceCache& cache)
{
    std::vector<vpred::PredictorConfig> grid;
    for (const unsigned l2 : vpred::harness::paperL2Bits()) {
        for (const auto kind :
             {vpred::PredictorKind::Fcm, vpred::PredictorKind::Dfcm}) {
            vpred::PredictorConfig c = config(kind);
            c.l2_bits = l2;
            grid.push_back(c);
        }
    }
    vpred::harness::ParallelSweep sweep(cache);
    const std::uint64_t t0 = nowNs();
    const auto results = sweep.runGrid(grid);
    const std::uint64_t t1 = nowNs();
    for (const auto& r : results)
        pr.checksum += r.total.correct;
    const vpred::harness::SweepExecution& e = sweep.lastExecution();
    pr.spans.add("harness.parallel_sweep.runGrid", 0, t0, t1,
                 {"cells", static_cast<double>(e.cells)},
                 {"trace_walks", static_cast<double>(e.trace_walks)},
                 {"jobs", static_cast<double>(e.jobs)});
    pr.metrics.num("harness.parallel_sweep.wall_s", secondsBetween(t0, t1))
            .num("harness.parallel_sweep.cells", static_cast<double>(e.cells))
            .num("harness.parallel_sweep.trace_walks",
                 static_cast<double>(e.trace_walks))
            .num("harness.parallel_sweep.cells_per_walk",
                 e.trace_walks == 0
                         ? 0.0
                         : static_cast<double>(e.cells)
                                 / static_cast<double>(e.trace_walks));
}

void
probeAcquisition(Probe& pr, const std::string& scratch)
{
    namespace fs = std::filesystem;
    const auto& names = vpred::workloads::benchmarkNames();

    // The VM, serially, one workload per call.
    const std::uint64_t g0 = nowNs();
    const std::uint64_t group = pr.spans.reserveId();
    std::uint64_t instructions = 0;
    std::uint64_t vm_ns = 0;
    for (const std::string& n : names) {
        const std::uint64_t t0 = nowNs();
        const vpred::sim::TraceResult r = vpred::workloads::runWorkload(n);
        const std::uint64_t t1 = nowNs();
        instructions += r.instructions;
        vm_ns += t1 - t0;
        pr.checksum += r.trace.size();
        pr.spans.add("workloads.runWorkload", group, t0, t1,
                     {"instructions", static_cast<double>(r.instructions)},
                     {"records", static_cast<double>(r.trace.size())});
    }
    pr.spans.addWithId(group, "probe.sim", 0, g0, nowNs());
    pr.metrics.num("sim.instr_per_s", static_cast<double>(instructions) * 1e9
                                              / static_cast<double>(vm_ns));

    // The trace store: prewarm on a cold store, then on the warm one.
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    double map_s = 0.0;
    for (const char* phase : {"cold", "warm"}) {
        vpred::harness::TraceCache cache(1.0, scratch);
        const std::uint64_t t0 = nowNs();
        cache.prewarm(names);
        const std::uint64_t t1 = nowNs();
        const auto a = cache.acquisition();
        hits += a.store_hits;
        misses += a.store_misses;
        if (std::string(phase) == "warm")
            map_s = secondsBetween(t0, t1);
        pr.spans.add(std::string(phase) == "cold"
                             ? "harness.trace_cache.prewarm.cold"
                             : "harness.trace_cache.prewarm.warm",
                     0, t0, t1, {"hits", static_cast<double>(a.store_hits)},
                     {"misses", static_cast<double>(a.store_misses)},
                     {"generated", static_cast<double>(a.generated)});
    }
    fs::remove_all(scratch);
    pr.metrics.num("harness.trace_store.map_s", map_s)
            .num("harness.trace_store.hits", static_cast<double>(hits))
            .num("harness.trace_store.misses", static_cast<double>(misses));
}

int
run(int argc, char** argv)
{
    if (argc < 2)
        throw std::invalid_argument("usage: perfbench_layer_probe populate|probe ...");
    const std::string cmd = argv[1];
    std::string store, scratch, groups, spans;
    for (int i = 2; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--store")
            store = val;
        else if (key == "--scratch")
            scratch = val;
        else if (key == "--groups")
            groups = val;
        else if (key == "--spans")
            spans = val;
        else
            throw std::invalid_argument("unknown argument " + key);
    }
    if (store.empty())
        throw std::invalid_argument("--store is required");

    if (cmd == "populate") {
        std::vector<std::string> names;
        for (const auto& w : vpred::workloads::allWorkloads())
            names.push_back(w.name);
        vpred::harness::TraceCache cache(1.0, store);
        const std::uint64_t t0 = nowNs();
        cache.prewarm(names);
        const std::uint64_t t1 = nowNs();
        const auto a = cache.acquisition();
        if (a.store_writes != names.size())
            throw std::runtime_error("store " + store + " was not cold");
        perfbench::JsonObject out;
        out.num("seconds", secondsBetween(t0, t1))
                .num("generated", static_cast<double>(a.generated));
        std::cout << out.text() << std::endl;
        return 0;
    }
    if (cmd != "probe")
        throw std::invalid_argument("unknown command " + cmd);

    std::set<std::string> want;
    for (std::size_t pos = 0; pos <= groups.size();) {
        const std::size_t comma = std::min(groups.find(',', pos), groups.size());
        if (comma > pos)
            want.insert(groups.substr(pos, comma - pos));
        pos = comma + 1;
    }
    for (const std::string& g : want)
        if (g != "kernels" && g != "mg_dfcm" && g != "sweep"
            && g != "acquisition")
            throw std::invalid_argument("unknown probe group " + g);
    if (want.count("acquisition") && scratch.empty())
        throw std::invalid_argument("the acquisition probe needs --scratch");

    Probe pr;
    vpred::harness::TraceCache cache(1.0, store);
    cache.prewarm(vpred::workloads::benchmarkNames());
    if (want.count("kernels") || want.count("mg_dfcm"))
        probeKernels(pr, cache, !want.count("kernels"));
    if (want.count("sweep"))
        probeSweep(pr, cache);
    if (want.count("acquisition"))
        probeAcquisition(pr, scratch);

    if (!spans.empty() && !perfbench::writeSpans(spans, {&pr.spans}))
        throw std::runtime_error("cannot write spans to " + spans);
    perfbench::JsonObject out;
    out.object("metrics", pr.metrics)
            .num("checksum", static_cast<double>(pr.checksum));
    std::cout << out.text() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench_layer_probe: " << e.what() << "\n";
        return 1;
    }
}
