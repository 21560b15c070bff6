#include "parallel.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "logging.h"

namespace anaheim {

namespace {

/** Nonzero while the current thread is executing loop indices; nested
 *  parallelFor calls detect this and run inline. */
thread_local int tlsInLoop = 0;

} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    spawn(threads);
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::spawn(size_t threads)
{
    const size_t clamped = std::min(std::max<size_t>(threads, 1),
                                    kMaxThreads);
    stop_ = false;
    workers_.reserve(clamped - 1);
    for (size_t i = 0; i + 1 < clamped; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
    workers_.clear();
}

void
ThreadPool::resize(size_t threads)
{
    shutdown();
    spawn(threads);
}

void
ThreadPool::runIndices(Job &job)
{
    ++tlsInLoop;
    for (;;) {
        const size_t offset =
            job.cursor.fetch_add(1, std::memory_order_relaxed);
        if (offset >= job.count)
            break;
        try {
            (*job.fn)(job.begin + offset);
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(job.errorMutex);
                if (!job.error)
                    job.error = std::current_exception();
            }
            // Skip the unclaimed indices; in-flight indices on other
            // threads finish normally.
            job.cursor.store(job.count, std::memory_order_relaxed);
        }
    }
    --tlsInLoop;
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            job = job_;
        }
        if (!job)
            continue;
        runIndices(*job);
        if (job->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Last worker out signals completion under the lock so the
            // submitter cannot miss the notification.
            std::lock_guard<std::mutex> lock(mutex_);
            done_.notify_all();
        }
    }
}

void
ThreadPool::parallelFor(size_t begin, size_t end,
                        const std::function<void(size_t)> &fn)
{
    if (end <= begin)
        return;
    const size_t count = end - begin;
    // Serial fallback: pool of one, a single index, or a nested call
    // from inside a running loop.
    if (workers_.empty() || count == 1 || tlsInLoop > 0) {
        for (size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }

    std::lock_guard<std::mutex> submitLock(submitMutex_);
    Job job;
    job.fn = &fn;
    job.begin = begin;
    job.count = count;
    job.cursor.store(0, std::memory_order_relaxed);
    job.pending.store(workers_.size(), std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &job;
        ++generation_;
    }
    wake_.notify_all();

    // The caller works too; indices are claimed from the shared cursor.
    runIndices(job);

    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] {
            return job.pending.load(std::memory_order_acquire) == 0;
        });
        job_ = nullptr;
    }
    if (job.error)
        std::rethrow_exception(job.error);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreadCount());
    return pool;
}

size_t
defaultThreadCount()
{
    if (const char *env = std::getenv("ANAHEIM_THREADS")) {
        char *endPtr = nullptr;
        const long parsed = std::strtol(env, &endPtr, 10);
        if (endPtr != env && *endPtr == '\0' && parsed >= 1) {
            return std::min<size_t>(static_cast<size_t>(parsed),
                                    ThreadPool::kMaxThreads);
        }
        ANAHEIM_WARN("ignoring unparseable ANAHEIM_THREADS='", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t
parallelThreadCount()
{
    return ThreadPool::global().size();
}

void
setParallelThreads(size_t threads)
{
    ThreadPool::global().resize(threads);
}

void
parallelFor(size_t begin, size_t end,
            const std::function<void(size_t)> &fn)
{
    ThreadPool::global().parallelFor(begin, end, fn);
}

} // namespace anaheim
