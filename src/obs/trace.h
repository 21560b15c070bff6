/**
 * @file
 * Scoped tracing runtime: RAII host-side spans plus an explicit
 * simulated-time track, collected into per-thread buffers and exported
 * as Chrome trace-event / Perfetto JSON (obs/export.h).
 *
 * Two clocks, deliberately kept apart:
 *  - HOST spans (`OBS_SPAN("keyswitch/modup")`) measure wall-clock time
 *    of this process — where the functional library and the simulator
 *    themselves spend time. Timestamps are microseconds since the
 *    process trace epoch (first collector use).
 *  - SIM spans carry *simulated* nanoseconds from the architecture
 *    model (`RunResult::timeline`); they are recorded explicitly with
 *    start/end and never touch the host clock. Each recorded run gets
 *    its own run id so successive `execute()` calls don't overlap at
 *    t = 0 in the viewer.
 *
 * Threading: every thread appends to its own buffer guarded by its own
 * uncontended mutex (lock-free-ish: the fast path never blocks on other
 * threads), so the limb-parallel engine can trace without serializing.
 * Buffers are owned by the collector and outlive their threads.
 *
 * Overhead when disabled: `OBS_SPAN` costs one relaxed atomic load and
 * a branch — safe for hot paths. Enable via `ANAHEIM_TRACE=1`,
 * `obs::setTracingEnabled(true)`, or any bench's `--trace <path>`.
 */

#ifndef ANAHEIM_OBS_TRACE_H
#define ANAHEIM_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace anaheim::obs {

namespace detail {
extern std::atomic<bool> gTracingEnabled;
} // namespace detail

/** Whether host-span recording is live (one relaxed load). */
inline bool
tracingEnabled()
{
    return detail::gTracingEnabled.load(std::memory_order_relaxed);
}

/** Flip span recording at runtime (initial value: ANAHEIM_TRACE env). */
void setTracingEnabled(bool enabled);

/** One completed host-side span. */
struct HostSpan {
    /** Static string ("layer/what"); macro call sites pass literals. */
    const char *name = "";
    /** Stable per-thread index in registration order (0 = first thread
     *  that traced, usually the main thread). */
    uint32_t tid = 0;
    /** Nesting depth within the owning thread at open time (0 = top). */
    uint32_t depth = 0;
    /** Microseconds since the process trace epoch. */
    double startUs = 0.0;
    double durUs = 0.0;
};

/** One simulated-timeline span (explicit timestamps, sim clock). */
struct SimSpan {
    std::string name;     ///< phase ("ModUp", "Scrub", ...)
    std::string lane;     ///< track: "GPU", "PIM", "Scrub", ...
    std::string category; ///< breakdown category (kernel class / phase)
    uint32_t run = 0;     ///< which recorded run this span belongs to
    double startUs = 0.0; ///< simulated time, microseconds
    double durUs = 0.0;
    double energyPj = 0.0;
};

/**
 * Process-wide span sink. Host spans land in per-thread buffers; sim
 * spans and run registration serialize on one mutex (they are emitted
 * once per run, not per kernel-invocation hot path).
 */
class TraceCollector
{
  public:
    static TraceCollector &global();

    /** Register a simulated run; returns its run id for SimSpan::run. */
    uint32_t beginRun(const std::string &name);

    void recordSimSpan(SimSpan span);

    /** Snapshot of every completed host span across all threads,
     *  ordered by (tid, startUs). */
    std::vector<HostSpan> hostSpans() const;

    /** Snapshot of the simulated track in record order. */
    std::vector<SimSpan> simSpans() const;

    /** Names of the recorded runs, indexed by run id. */
    std::vector<std::string> runNames() const;

    /** Drop every recorded span and run (buffers stay registered). */
    void clear();

    /** Microseconds elapsed on the host clock since the trace epoch. */
    static double nowUs();

    // Internal: called by ScopedSpan only.
    struct ThreadBuffer;
    static ThreadBuffer &localBuffer();

  private:
    TraceCollector() = default;
};

/** RAII host span; use via OBS_SPAN. Inactive (and nearly free) when
 *  tracing is disabled at open time. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
    {
        if (tracingEnabled())
            open(name);
    }

    ~ScopedSpan()
    {
        if (name_ != nullptr)
            close();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    void open(const char *name);
    void close();

    const char *name_ = nullptr;
    double startUs_ = 0.0;
    uint32_t depth_ = 0;
};

} // namespace anaheim::obs

#define ANAHEIM_OBS_CONCAT2(a, b) a##b
#define ANAHEIM_OBS_CONCAT(a, b) ANAHEIM_OBS_CONCAT2(a, b)

/** Open a host-clock span for the rest of the enclosing scope. */
#define OBS_SPAN(name)                                                       \
    ::anaheim::obs::ScopedSpan ANAHEIM_OBS_CONCAT(obsSpan_,                  \
                                                  __COUNTER__)(name)

#endif // ANAHEIM_OBS_TRACE_H
