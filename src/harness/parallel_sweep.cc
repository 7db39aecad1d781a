#include "harness/parallel_sweep.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <set>

#include "core/cpu_features.hh"
#include "core/parse_util.hh"
#include "harness/batch_sweep.hh"
#include "workloads/workload.hh"

namespace vpred::harness
{

std::string
SweepExecution::path() const
{
    if (cells == 0)
        return "empty";
    if (batched_cells == cells)
        return "multi-geometry";
    if (fused_cells == cells)
        return "fused";
    if (virtual_cells == cells)
        return "virtual";
    return "mixed";
}

unsigned
envJobs()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const char* env = std::getenv("REPRO_JOBS");
    if (env == nullptr)
        return hw;
    const std::optional<unsigned long long> v = parseUInt(env);
    if (!v) {
        static bool warned = false;
        if (!warned) {
            warned = true;
            std::cerr << "warning: REPRO_JOBS='" << env
                      << "' is not a number; using " << hw << "\n";
        }
        return hw;
    }
    if (*v == 0)
        return hw;
    return static_cast<unsigned>(std::min(*v, 512ull));
}

ThreadPool::ThreadPool(unsigned jobs)
    : jobs_(jobs > 0 ? jobs : envJobs())
{
    if (jobs_ > 1) {
        workers_.reserve(jobs_);
        for (unsigned i = 0; i < jobs_; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen_generation = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_cv_.wait(lock, [&] {
            return stop_ ||
                   (task_ != nullptr && generation_ != seen_generation);
        });
        if (stop_)
            return;
        seen_generation = generation_;
        // Claim cells under the lock: a cell is a whole trace run, so
        // contention is negligible, and stale claims against a
        // superseded batch become impossible.
        while (task_ != nullptr && generation_ == seen_generation &&
               next_ < task_size_) {
            const std::size_t i = next_++;
            const std::function<void(std::size_t)>* task = task_;
            lock.unlock();
            std::exception_ptr err;
            try {
                (*task)(i);
            } catch (...) {
                err = std::current_exception();
            }
            lock.lock();
            if (err && !error_)
                error_ = err;
            if (--pending_ == 0)
                done_cv_.notify_one();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)>& fn)
{
    if (n == 0)
        return;
    if (workers_.empty()) {
        // jobs == 1: deterministic inline execution, no threads.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    task_ = &fn;
    task_size_ = n;
    next_ = 0;
    pending_ = n;
    error_ = nullptr;
    ++generation_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    task_ = nullptr;
    task_size_ = 0;
    if (error_)
        std::rethrow_exception(error_);
}

ParallelSweep::ParallelSweep(TraceCache& cache, unsigned jobs)
    : cache_(cache), pool_(jobs)
{
}

namespace
{

/** True iff the per-config path for @p c runs through a fused
 *  runTraceSpan override rather than the generic virtual loop. */
bool
fusedConfig(const PredictorConfig& c)
{
    if (c.update_delay > 0)
        return false;
    switch (c.kind) {
      case PredictorKind::Lvp:
      case PredictorKind::Stride:
      case PredictorKind::TwoDelta:
      case PredictorKind::Fcm:
      case PredictorKind::Dfcm:
        return true;
      default:
        return false;
    }
}

} // namespace

std::vector<SuiteResult>
ParallelSweep::runGrid(const std::vector<PredictorConfig>& configs,
                       const std::vector<std::string>& workload_names)
{
    const auto start = std::chrono::steady_clock::now();
    const TraceCache::AcquisitionStats acq_before = cache_.acquisition();

    // Pre-warm the trace cache (in parallel — trace generation is the
    // serial bottleneck otherwise) so sweep cells only ever *read* it.
    // getSpan() keeps store-mapped traces zero-copy: the sweep runs
    // straight over the mmap'd records.
    const std::set<std::string> unique(workload_names.begin(),
                                       workload_names.end());
    const std::vector<std::string> warm(unique.begin(), unique.end());
    pool_.parallelFor(warm.size(),
                      [&](std::size_t i) { cache_.getSpan(warm[i]); });

    // Route l2_bits columns through the multi-geometry kernels and
    // the rest through the per-config path. Results land at fixed
    // indices, so gathering preserves the serial grid order and the
    // output is bit-identical whichever way a cell executed.
    const BatchPlan plan = planBatchSweep(configs);
    const std::size_t n_workloads = workload_names.size();
    std::vector<RunResult> cells(configs.size() * n_workloads);

    // Probe name/storage for batched configs up front (runOn derives
    // them from its live predictor; the kernel has no single one).
    struct ColumnMeta
    {
        std::string name;
        std::uint64_t storage_bits = 0;
    };
    std::vector<ColumnMeta> meta(configs.size());
    for (const BatchGroup& g : plan.groups) {
        for (std::size_t i : g.config_indices) {
            const auto probe = makePredictor(configs[i]);
            meta[i] = {probe->name(), probe->storageBits()};
        }
    }

    // One task per (group × workload) walk plus one per leftover
    // (config × workload) cell; dynamic claiming absorbs the uneven
    // costs (a group walk covers a whole column of cells).
    const std::size_t n_units = plan.groups.size() + plan.singles.size();
    pool_.parallelFor(n_units * n_workloads, [&](std::size_t t) {
        const std::size_t unit = t / n_workloads;
        const std::size_t w = t % n_workloads;
        if (unit < plan.groups.size()) {
            const BatchGroup& g = plan.groups[unit];
            const std::vector<PredictorStats> stats =
                    runBatchGroup(g, cache_.getSpan(workload_names[w]));
            for (std::size_t j = 0; j < g.config_indices.size(); ++j) {
                const std::size_t i = g.config_indices[j];
                RunResult& r = cells[i * n_workloads + w];
                r.workload = workload_names[w];
                r.predictor = meta[i].name;
                r.storage_bits = meta[i].storage_bits;
                r.stats = stats[j];
            }
        } else {
            const std::size_t i =
                    plan.singles[unit - plan.groups.size()];
            cells[i * n_workloads + w] =
                    runOn(cache_, workload_names[w], configs[i]);
        }
    });

    std::vector<SuiteResult> suites;
    suites.reserve(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::vector<RunResult> runs(
                std::make_move_iterator(cells.begin() + c * n_workloads),
                std::make_move_iterator(cells.begin() +
                                        (c + 1) * n_workloads));
        suites.push_back(aggregateSuite(configs[c], std::move(runs)));
    }

    execution_ = SweepExecution{};
    execution_.cells = cells.size();
    execution_.batched_cells = plan.batchedConfigs() * n_workloads;
    for (std::size_t i : plan.singles) {
        (fusedConfig(configs[i]) ? execution_.fused_cells
                                 : execution_.virtual_cells) +=
                n_workloads;
    }
    execution_.trace_walks = n_units * n_workloads;
    execution_.jobs = pool_.jobs();
    execution_.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                    .count();

    // Trace-acquisition deltas over this call: how many traces came
    // from the persistent store vs. the VM, and the wall time spent
    // acquiring them (usually all inside the prewarm above).
    const TraceCache::AcquisitionStats acq_after = cache_.acquisition();
    execution_.store_enabled = acq_after.store_enabled;
    execution_.store_hits = acq_after.store_hits - acq_before.store_hits;
    execution_.store_misses =
            acq_after.store_misses - acq_before.store_misses;
    execution_.acquisition_seconds =
            acq_after.seconds() - acq_before.seconds();

    // Record the SIMD backend the multi-geometry kernels dispatched
    // to (scalar when no rows batched — the per-config paths never
    // vectorize).
    const SimdBackend backend = execution_.batched_cells > 0
            ? bestSimdBackend()
            : SimdBackend::Scalar;
    execution_.simd_backend = simdBackendName(backend);
    execution_.vector_width = simdVectorBits(backend);
    return suites;
}

std::vector<SuiteResult>
ParallelSweep::runGrid(const std::vector<PredictorConfig>& configs)
{
    return runGrid(configs, workloads::benchmarkNames());
}

} // namespace vpred::harness
