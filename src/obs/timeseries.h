/**
 * @file
 * Streaming time-series telemetry (DESIGN.md §17): windowed samplers
 * over *simulated* time that turn the end-of-run counter snapshots of
 * obs/metrics.h into evolution curves — how goodput, queue depth, tail
 * latency and rejection causes change while a serving run is under
 * load — plus the SLO burn-rate evaluator the scheduler drives its
 * `Alert` timeline lane from.
 *
 * Model: every `TimeSeries` is a ring of fixed-duration windows (the
 * registry-wide tick is chosen by the emitter, e.g. the serving
 * scheduler's `ServeTelemetryConfig::tickNs`). Each window holds a
 * count, a sum, min/max, and a fixed log-bucketed (HDR-style)
 * histogram — 4 sub-buckets per octave, so any non-negative value is
 * bucketed with <= ~9% relative error and a window can answer
 * rate/p50/p99 without storing samples. Idle gaps in simulated time
 * materialize as zero-count windows; when the ring wraps, the oldest
 * windows are evicted (bounded memory under open-ended runs).
 *
 * Concurrency: updates and snapshots serialize on a per-series mutex —
 * series sit on scheduler-event granularity, not kernel hot paths.
 * The emitter decides whether to sample: one that samples nothing
 * creates no series (the serving scheduler samples only when
 * `ServeTelemetryConfig::tickNs > 0`).
 *
 * Everything is a pure function of the observed (timestamp, value)
 * pairs: no wall clock, no randomness, so sampled serve runs stay
 * bitwise deterministic.
 */

#ifndef ANAHEIM_OBS_TIMESERIES_H
#define ANAHEIM_OBS_TIMESERIES_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace anaheim::obs {

/** Fixed log-bucket layout shared by every window: bucket 0 holds
 *  [0, 1), then 4 geometric sub-buckets per octave up to 2^40, then
 *  one overflow bucket. Pure integer/frexp arithmetic — identical
 *  bucketing on every platform. */
struct LogBuckets {
    static constexpr size_t kOctaves = 40;
    static constexpr size_t kSubPerOctave = 4;
    /** underflow + octaves*sub + overflow */
    static constexpr size_t kCount = 2 + kOctaves * kSubPerOctave;

    /** Bucket index for a finite value >= 0. Callers must drop
     *  non-finite values first (TimeSeries::observe does). */
    static size_t index(double value);

    /** Inclusive lower bound of bucket `i` (0 for the underflow
     *  bucket). */
    static double lowerBound(size_t i);

    /** Geometric midpoint used as the quantile estimate for a rank
     *  that lands in bucket `i`. */
    static double midpoint(size_t i);
};

/** One closed (or in-progress) window of a series, as exported. */
struct SeriesPoint {
    double startNs = 0.0; ///< window start, simulated time
    double durNs = 0.0;   ///< window duration (the series tick)
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0; ///< 0 when the window is empty
    double max = 0.0;
    double p50 = 0.0; ///< log-bucket estimate clamped into [min, max]
    double p99 = 0.0;
    /** Observations per second of simulated time. */
    double ratePerSec() const
    {
        return durNs > 0.0 ? static_cast<double>(count) / (durNs * 1e-9)
                           : 0.0;
    }
    double mean() const
    {
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
};

/** Point-in-time copy of one series. */
struct SeriesSnapshot {
    std::string name;
    double tickNs = 0.0;
    std::vector<SeriesPoint> points;
    /** Observations older than the ring's reach when they arrived. */
    uint64_t droppedLate = 0;
    /** Windows evicted by ring wrap-around. */
    uint64_t evictedWindows = 0;
};

/**
 * One named windowed-histogram series. Observations carry their own
 * simulated timestamp; the series maps them onto fixed windows of
 * `tickNs`, zero-filling idle gaps and evicting the oldest windows
 * once `capacity` is exceeded. A gauge-style series simply observes
 * one value per tick; an event-style series observes each event
 * (value = latency, or 1.0 for pure rates).
 */
class TimeSeries
{
  public:
    TimeSeries(std::string name, double tickNs, size_t capacity);

    /** Record `value` into the window containing `simNs`. Non-finite
     *  values and negative timestamps are dropped (counted in
     *  `obs.dropped_samples`); observations older than the retained
     *  ring are dropped and counted in the snapshot's `droppedLate`.
     *  There is no sampling switch here: a caller that samples
     *  nothing builds no series (the serve layer at `tickNs = 0`). */
    void observe(double simNs, double value);

    /** Materialize every window up to (and containing) `simNs`, so
     *  trailing idle time exports as explicit zero-count windows. */
    void advanceTo(double simNs);

    const std::string &name() const { return name_; }
    double tickNs() const { return tickNs_; }

    SeriesSnapshot snapshot() const;

  private:
    struct Window {
        uint64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        std::vector<uint32_t> buckets; ///< lazily sized kCount
    };

    Window *windowFor(double simNs); ///< nullptr = dropped
    static SeriesPoint pointOf(const Window &window, double startNs,
                               double durNs);

    const std::string name_;
    const double tickNs_;
    const size_t capacity_;

    mutable std::mutex mutex_;
    std::deque<Window> windows_;
    /** Window index (simNs / tickNs) of windows_.front(). */
    uint64_t baseIndex_ = 0;
    uint64_t droppedLate_ = 0;
    uint64_t evicted_ = 0;
};

/**
 * Process-wide find-or-create registry for time series, the
 * simulated-time sibling of MetricsRegistry. Series live for the
 * process lifetime; references never dangle. Emitters that run many
 * times per process (the serving scheduler) prefix their series with
 * a `beginEpoch()` serial so successive runs never collide.
 */
class TimeSeriesRegistry
{
  public:
    static TimeSeriesRegistry &global();

    /** Find-or-create by name. Raises AnaheimError (InvalidArgument)
     *  when `name` exists with a different tick. */
    TimeSeries &series(const std::string &name, double tickNs,
                       size_t capacity = kDefaultCapacity);

    /** Monotone per-process run serial for series namespacing. */
    uint64_t beginEpoch();

    std::vector<SeriesSnapshot> snapshotAll() const;

    size_t size() const;

    /** Drop every registered series (tests only — outstanding
     *  references dangle). */
    void clear();

    static constexpr size_t kDefaultCapacity = 1024;

  private:
    TimeSeriesRegistry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<TimeSeries>> series_;
    std::atomic<uint64_t> epoch_{0};
};

/** Fast/slow window pair knobs for one burn-rate alert. */
struct BurnRateConfig {
    /** Success-ratio objective (e.g. 0.95 deadline-met). */
    double sloTarget = 0.95;
    /** Short window: catches fast burns, in ticks. */
    size_t fastWindowTicks = 3;
    /** Long window: filters blips, in ticks. */
    size_t slowWindowTicks = 12;
    /** Error-budget burn rate BOTH windows must reach to fire
     *  (1.0 = burning budget exactly at the objective rate). */
    double burnThreshold = 1.0;
};

/**
 * Multi-window SLO burn-rate evaluator over a good/total ratio (the
 * classic fast+slow pair: alert only when the error budget is burning
 * in both the recent past and the sustained past, so a single bad
 * window can't page and a long slow burn can't hide). Fed one closed
 * window per tick by the emitter; windows with no traffic burn
 * nothing.
 */
class BurnRateEvaluator
{
  public:
    explicit BurnRateEvaluator(BurnRateConfig config);

    struct Evaluation {
        bool firing = false;
        /** Transition edges this tick. */
        bool fired = false;
        bool resolved = false;
        double fastBurn = 0.0;
        double slowBurn = 0.0;
    };

    /** Feed one closed window's (good, total) pair. */
    Evaluation update(uint64_t good, uint64_t total);

    bool firing() const { return firing_; }
    uint64_t alertsFired() const { return alertsFired_; }
    uint64_t alertsResolved() const { return alertsResolved_; }
    uint64_t ticksFiring() const { return ticksFiring_; }

  private:
    double burnOver(size_t windows) const;

    const BurnRateConfig config_;
    /** Last slowWindowTicks windows of (good, total). */
    std::deque<std::pair<uint64_t, uint64_t>> history_;
    bool firing_ = false;
    uint64_t alertsFired_ = 0;
    uint64_t alertsResolved_ = 0;
    uint64_t ticksFiring_ = 0;
};

} // namespace anaheim::obs

#endif // ANAHEIM_OBS_TIMESERIES_H
