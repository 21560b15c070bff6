/**
 * @file
 * Shared limb-parallel execution engine.
 *
 * Anaheim's premise is that the element-wise/limb-wise portion of CKKS is
 * embarrassingly parallel — the hardware model exploits it with 8-lane
 * MMAC units and column-partitioned PolyGroups (§VI-B). This engine
 * exploits the same structural parallelism on the host: a single
 * process-wide pool of worker threads that the limb-indexed hot loops
 * (NTT per limb, BConv stages, ModUp/ModDown, homomorphic DFT columns)
 * dispatch onto via parallelFor().
 *
 * Determinism guarantee: parallelFor(begin, end, fn) invokes fn(i)
 * exactly once for every i in [begin, end), each index on exactly one
 * thread, with no reordering of the work *within* an index. Callers
 * partition output by index (one limb / one column per index), so the
 * result is bitwise identical to the serial loop — there is no
 * floating-point reassociation and no accumulation order change. Every
 * existing test therefore doubles as a determinism check.
 *
 * Pool lifetime and sizing: the global pool is created on first use and
 * lives for the remainder of the process. Its size comes from the
 * ANAHEIM_THREADS environment variable when set (clamped to
 * [1, kMaxThreads]), otherwise std::thread::hardware_concurrency().
 * Size 1 means no worker threads are spawned at all and every
 * parallelFor runs inline on the caller — the serial fallback.
 */

#ifndef ANAHEIM_COMMON_PARALLEL_H
#define ANAHEIM_COMMON_PARALLEL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace anaheim {

/**
 * Fixed-size pool of worker threads executing index ranges.
 *
 * One parallel loop is active at a time (concurrent submissions from
 * different user threads serialize on an internal mutex). Nested
 * parallelFor calls — fn itself calling parallelFor — run inline on the
 * calling thread, so composition is safe and deadlock-free.
 */
class ThreadPool
{
  public:
    /** Hard cap on pool size; guards against absurd ANAHEIM_THREADS. */
    static constexpr size_t kMaxThreads = 256;

    /** @param threads Total worker count including the caller; 0 and 1
     *  both mean serial (no threads spawned). */
    explicit ThreadPool(size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total execution width (spawned workers + the calling thread). */
    size_t size() const { return workers_.size() + 1; }

    /**
     * Run fn(i) for every i in [begin, end), each worker claiming the
     * next unclaimed index (one limb or one column per task). The
     * caller participates in the work and the call returns only when
     * every index has run. The first exception thrown by fn is
     * rethrown on the caller after the loop drains (unclaimed indices
     * are skipped, in-flight indices finish).
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)> &fn);

    /**
     * Tear down the workers and respawn at a new size. Must only be
     * called while no loop is in flight (benchmarks and tests sweeping
     * thread counts); not safe concurrently with parallelFor.
     */
    void resize(size_t threads);

    /** The process-wide pool, created on first use (see file header). */
    static ThreadPool &global();

  private:
    struct Job {
        const std::function<void(size_t)> *fn = nullptr;
        size_t begin = 0;
        /** end - begin. Workers claim offsets from 0 rather than raw
         *  indices, so the claim counter stops near `count` and cannot
         *  wrap past `end` for ranges ending near SIZE_MAX. */
        size_t count = 0;
        std::atomic<size_t> cursor{0};
        std::atomic<size_t> pending{0};
        std::mutex errorMutex;
        std::exception_ptr error;
    };

    void workerLoop();
    static void runIndices(Job &job);
    void spawn(size_t threads);
    void shutdown();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    Job *job_ = nullptr;
    uint64_t generation_ = 0;
    bool stop_ = false;
    /** Serializes whole parallelFor calls from different user threads. */
    std::mutex submitMutex_;
};

/**
 * Pool size the global pool is built with: ANAHEIM_THREADS when set and
 * parseable (clamped to [1, ThreadPool::kMaxThreads]), otherwise
 * hardware_concurrency() (itself at least 1).
 */
size_t defaultThreadCount();

/** Execution width of the global pool. */
size_t parallelThreadCount();

/**
 * Rebuild the global pool at `threads` width. Quiescent use only
 * (benchmarks sweeping 1/2/4/8, tests pinning the serial fallback).
 */
void setParallelThreads(size_t threads);

/** parallelFor on the global pool; see ThreadPool::parallelFor. */
void parallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)> &fn);

} // namespace anaheim

#endif // ANAHEIM_COMMON_PARALLEL_H
