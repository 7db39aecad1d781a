/**
 * @file
 * Parallel sweep executor for the experiment harness.
 *
 * Every paper figure is a sweep over a (predictor-config × workload)
 * grid; the cells are independent trace-driven runs, so they
 * parallelize perfectly once the workload traces are shared safely.
 * ParallelSweep fans the grid out over a fixed thread pool — each
 * worker builds its own predictor and PredictorStats per cell and
 * only *reads* the TraceCache — and gathers the results back in
 * deterministic grid order, so parallel output is bit-identical to
 * the serial runSuite() path.
 *
 * Worker count comes from the REPRO_JOBS environment variable
 * (default: std::thread::hardware_concurrency). REPRO_JOBS=1 runs
 * every cell inline on the calling thread, spawning no workers.
 */

#ifndef DFCM_HARNESS_PARALLEL_SWEEP_HH
#define DFCM_HARNESS_PARALLEL_SWEEP_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"

namespace vpred::harness
{

/**
 * How a runGrid() call actually executed: which path evaluated each
 * (config × workload) cell, how many trace walks that took, and how
 * long it ran. Emitted into BENCH JSON files so perf numbers are
 * comparable across commits.
 */
struct SweepExecution
{
    std::uint64_t cells = 0;          //!< (config × workload) cells
    std::uint64_t batched_cells = 0;  //!< via multi-geometry kernel
    std::uint64_t fused_cells = 0;    //!< per-config, devirtualized
    std::uint64_t virtual_cells = 0;  //!< per-config, virtual loop
    std::uint64_t trace_walks = 0;    //!< walks actually performed
    unsigned jobs = 1;
    double wall_seconds = 0.0;

    // Trace acquisition during this runGrid() call (prewarm plus any
    // stragglers): persistent-store traffic and wall time spent
    // getting traces, as deltas of TraceCache::acquisition().
    bool store_enabled = false;        //!< REPRO_TRACE_DIR configured
    std::uint64_t store_hits = 0;      //!< traces mapped from disk
    std::uint64_t store_misses = 0;    //!< lookups that fell to the VM
    double acquisition_seconds = 0.0;  //!< wall time acquiring traces

    // SIMD dispatch in effect for the multi-geometry kernels during
    // this run (schema_version 4): the backend label from
    // simdBackendName() and its vector width in bits. "scalar"/64
    // when no vector backend ran (or none was built in).
    std::string simd_backend = "scalar";  //!< dispatched kernel backend
    unsigned vector_width = 64;           //!< backend vector bits

    /** Dominant path label: "multi-geometry", "fused", "virtual",
     *  "mixed", or "empty" for a zero-cell grid. */
    std::string path() const;
};

/**
 * Worker count from REPRO_JOBS (clamped to [1, 512]). Unset, zero or
 * unparsable values select hardware_concurrency (warning once on
 * stderr when unparsable).
 */
unsigned envJobs();

/**
 * A fixed pool of worker threads executing index-ranged jobs.
 *
 * Workers are spawned once in the constructor and reused across
 * parallelFor() calls; work is distributed dynamically through an
 * atomic cursor so uneven cell costs (big vs. small tables) do not
 * leave threads idle.
 */
class ThreadPool
{
  public:
    /** @param jobs Worker count; 0 selects envJobs(). A pool of one
     *  job spawns no threads and runs work inline. */
    explicit ThreadPool(unsigned jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    unsigned jobs() const { return jobs_; }

    /**
     * Invoke fn(i) for every i in [0, n), blocking until all calls
     * complete. Indices are claimed dynamically; with jobs() == 1 the
     * calls run in order on the calling thread. The first exception
     * thrown by fn is rethrown here after the batch drains.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)>& fn);

  private:
    void workerLoop();

    unsigned jobs_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable work_cv_;  //!< workers wait for a batch
    std::condition_variable done_cv_;  //!< parallelFor waits for drain
    const std::function<void(std::size_t)>* task_ = nullptr;
    std::size_t task_size_ = 0;
    std::size_t next_ = 0;             //!< next unclaimed cell index
    std::size_t pending_ = 0;          //!< cells not yet completed
    std::uint64_t generation_ = 0;     //!< batch id workers sync on
    std::exception_ptr error_;
    bool stop_ = false;
};

/**
 * Fan a (config × workload) grid out over a thread pool.
 *
 * All workloads are pre-warmed into the TraceCache first (also in
 * parallel). FCM/DFCM configs that differ only in l2_bits are routed
 * as whole columns through the single-pass multi-geometry kernels
 * (see harness/batch_sweep.hh; disable with REPRO_BATCH_SWEEP=0);
 * every remaining (config, workload) cell runs as one per-config
 * task. Results come back as one SuiteResult per config, in config
 * order, with per_workload in workload order — bit-identical to a
 * serial runSuite() loop over the same grid.
 */
class ParallelSweep
{
  public:
    /** @param jobs Worker count; 0 selects envJobs(). */
    explicit ParallelSweep(TraceCache& cache, unsigned jobs = 0);

    unsigned jobs() const { return pool_.jobs(); }

    /** Run every config over @p workload_names. */
    std::vector<SuiteResult> runGrid(
            const std::vector<PredictorConfig>& configs,
            const std::vector<std::string>& workload_names);

    /** Run every config over the paper's eight-benchmark suite. */
    std::vector<SuiteResult> runGrid(
            const std::vector<PredictorConfig>& configs);

    /** Execution report of the most recent runGrid() call. */
    const SweepExecution& lastExecution() const { return execution_; }

  private:
    TraceCache& cache_;
    ThreadPool pool_;
    SweepExecution execution_;
};

} // namespace vpred::harness

#endif // DFCM_HARNESS_PARALLEL_SWEEP_HH
