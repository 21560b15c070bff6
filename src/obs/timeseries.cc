#include "timeseries.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "obs/metrics.h"

namespace anaheim::obs {

namespace {

/** Counter for every dropped (non-finite / negative-time)
 *  observation. */
Counter &
droppedSamplesCounter()
{
    static Counter &counter =
        MetricsRegistry::global().counter("obs.dropped_samples");
    return counter;
}

// Sub-bucket thresholds on the frexp mantissa m in [0.5, 1):
// a value v = m * 2^e sits in octave e-1, sub-bucket by m against
// 2^-0.75, 2^-0.5, 2^-0.25. Exact literals keep bucketing identical
// across libm implementations.
constexpr double kSub1 = 0.59460355750136051; // 2^-0.75
constexpr double kSub2 = 0.70710678118654757; // 2^-0.5
constexpr double kSub3 = 0.84089641525371450; // 2^-0.25

/** 2^(1/4): the geometric growth between consecutive sub-buckets. */
constexpr double kGrowth = 1.1892071150027210;
/** 2^(1/8): half a sub-bucket, the midpoint factor. */
constexpr double kHalfGrowth = 1.0905077326652577;

} // namespace

size_t
LogBuckets::index(double value)
{
    if (!(value >= 1.0))
        return 0; // [0, 1)
    int exp = 0;
    const double mantissa = std::frexp(value, &exp);
    // value in [2^(exp-1), 2^exp): octave exp-1, counted from 0.
    const size_t octave = static_cast<size_t>(exp - 1);
    if (octave >= kOctaves)
        return kCount - 1; // overflow
    size_t sub = 3;
    if (mantissa < kSub1)
        sub = 0;
    else if (mantissa < kSub2)
        sub = 1;
    else if (mantissa < kSub3)
        sub = 2;
    return 1 + octave * kSubPerOctave + sub;
}

double
LogBuckets::lowerBound(size_t i)
{
    if (i == 0)
        return 0.0;
    if (i >= kCount - 1)
        return std::ldexp(1.0, static_cast<int>(kOctaves)); // 2^40
    double bound = 1.0;
    // Exact octave step via ldexp, then up to 3 growth multiplies.
    const size_t steps = i - 1;
    bound = std::ldexp(1.0, static_cast<int>(steps / kSubPerOctave));
    for (size_t s = 0; s < steps % kSubPerOctave; ++s)
        bound *= kGrowth;
    return bound;
}

double
LogBuckets::midpoint(size_t i)
{
    if (i == 0)
        return 0.5;
    return lowerBound(i) * kHalfGrowth;
}

TimeSeries::TimeSeries(std::string name, double tickNs, size_t capacity)
    : name_(std::move(name)), tickNs_(tickNs),
      capacity_(std::max<size_t>(capacity, 2))
{
    ANAHEIM_CHECK(tickNs_ > 0.0, InvalidArgument, "time series '",
                  name_, "': tick must be positive, got ", tickNs_);
}

TimeSeries::Window *
TimeSeries::windowFor(double simNs)
{
    const uint64_t index =
        static_cast<uint64_t>(std::floor(simNs / tickNs_));
    if (windows_.empty()) {
        baseIndex_ = index;
        windows_.emplace_back();
        return &windows_.back();
    }
    if (index < baseIndex_) {
        ++droppedLate_;
        return nullptr; // older than the retained ring
    }
    // Extend forward, materializing idle-gap windows as zero-count
    // entries, and evict from the front once past capacity.
    while (index >= baseIndex_ + windows_.size()) {
        windows_.emplace_back();
        if (windows_.size() > capacity_) {
            windows_.pop_front();
            ++baseIndex_;
            ++evicted_;
        }
    }
    return &windows_[static_cast<size_t>(index - baseIndex_)];
}

void
TimeSeries::observe(double simNs, double value)
{
    if (!std::isfinite(value) || !std::isfinite(simNs) || simNs < 0.0) {
        droppedSamplesCounter().add();
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    Window *window = windowFor(simNs);
    if (window == nullptr)
        return;
    const double magnitude = value < 0.0 ? 0.0 : value;
    if (window->buckets.empty())
        window->buckets.assign(LogBuckets::kCount, 0);
    ++window->buckets[LogBuckets::index(magnitude)];
    if (window->count == 0) {
        window->min = value;
        window->max = value;
    } else {
        window->min = std::min(window->min, value);
        window->max = std::max(window->max, value);
    }
    ++window->count;
    window->sum += value;
}

void
TimeSeries::advanceTo(double simNs)
{
    if (!std::isfinite(simNs) || simNs < 0.0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    (void)windowFor(simNs);
}

SeriesPoint
TimeSeries::pointOf(const Window &window, double startNs, double durNs)
{
    SeriesPoint point;
    point.startNs = startNs;
    point.durNs = durNs;
    point.count = window.count;
    point.sum = window.sum;
    point.min = window.min;
    point.max = window.max;
    if (window.count == 0)
        return point;
    // Nearest-rank quantiles over the log buckets, estimated at the
    // bucket's geometric midpoint and clamped into the window's true
    // [min, max] (a single-sample window reports the sample exactly).
    const auto quantile = [&](double q) {
        const uint64_t rank = std::max<uint64_t>(
            1, static_cast<uint64_t>(
                   std::ceil(q * static_cast<double>(window.count))));
        uint64_t seen = 0;
        for (size_t i = 0; i < window.buckets.size(); ++i) {
            seen += window.buckets[i];
            if (seen >= rank) {
                return std::clamp(LogBuckets::midpoint(i), window.min,
                                  window.max);
            }
        }
        return window.max;
    };
    point.p50 = quantile(0.50);
    point.p99 = quantile(0.99);
    return point;
}

SeriesSnapshot
TimeSeries::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SeriesSnapshot snap;
    snap.name = name_;
    snap.tickNs = tickNs_;
    snap.droppedLate = droppedLate_;
    snap.evictedWindows = evicted_;
    snap.points.reserve(windows_.size());
    for (size_t i = 0; i < windows_.size(); ++i) {
        const double startNs =
            static_cast<double>(baseIndex_ + i) * tickNs_;
        snap.points.push_back(pointOf(windows_[i], startNs, tickNs_));
    }
    return snap;
}

TimeSeriesRegistry &
TimeSeriesRegistry::global()
{
    static TimeSeriesRegistry *registry = new TimeSeriesRegistry();
    // Leaked deliberately, like MetricsRegistry: emitters cache series
    // references whose teardown order is unspecified.
    return *registry;
}

TimeSeries &
TimeSeriesRegistry::series(const std::string &name, double tickNs,
                           size_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = series_.find(name);
    if (it == series_.end()) {
        it = series_
                 .emplace(name, std::make_unique<TimeSeries>(
                                    name, tickNs, capacity))
                 .first;
    }
    ANAHEIM_CHECK(it->second->tickNs() == tickNs, InvalidArgument,
                  "time series '", name, "' already registered with "
                  "tick ", it->second->tickNs(), " ns, requested ",
                  tickNs, " ns");
    return *it->second;
}

uint64_t
TimeSeriesRegistry::beginEpoch()
{
    return epoch_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SeriesSnapshot>
TimeSeriesRegistry::snapshotAll() const
{
    std::vector<const TimeSeries *> all;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        all.reserve(series_.size());
        for (const auto &[name, series] : series_)
            all.push_back(series.get());
    }
    std::vector<SeriesSnapshot> snaps;
    snaps.reserve(all.size());
    for (const TimeSeries *series : all)
        snaps.push_back(series->snapshot());
    return snaps;
}

size_t
TimeSeriesRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return series_.size();
}

void
TimeSeriesRegistry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    series_.clear();
}

BurnRateEvaluator::BurnRateEvaluator(BurnRateConfig config)
    : config_(config)
{
    ANAHEIM_CHECK(config_.sloTarget > 0.0 && config_.sloTarget < 1.0,
                  InvalidArgument,
                  "burn-rate SLO target must be in (0, 1), got ",
                  config_.sloTarget);
    ANAHEIM_CHECK(config_.fastWindowTicks >= 1 &&
                      config_.slowWindowTicks >=
                          config_.fastWindowTicks,
                  InvalidArgument,
                  "burn-rate windows must satisfy 1 <= fast <= slow");
    ANAHEIM_CHECK(config_.burnThreshold > 0.0, InvalidArgument,
                  "burn threshold must be positive");
}

double
BurnRateEvaluator::burnOver(size_t windows) const
{
    uint64_t good = 0;
    uint64_t total = 0;
    const size_t have = history_.size();
    for (size_t i = have > windows ? have - windows : 0; i < have; ++i) {
        good += history_[i].first;
        total += history_[i].second;
    }
    if (total == 0)
        return 0.0; // no traffic burns no budget
    const double errorRate =
        1.0 - static_cast<double>(good) / static_cast<double>(total);
    return errorRate / (1.0 - config_.sloTarget);
}

BurnRateEvaluator::Evaluation
BurnRateEvaluator::update(uint64_t good, uint64_t total)
{
    ANAHEIM_CHECK(good <= total, InvalidArgument,
                  "burn-rate window has good ", good, " > total ",
                  total);
    history_.emplace_back(good, total);
    while (history_.size() > config_.slowWindowTicks)
        history_.pop_front();

    Evaluation eval;
    eval.fastBurn = burnOver(config_.fastWindowTicks);
    eval.slowBurn = burnOver(config_.slowWindowTicks);
    const bool breach = eval.fastBurn >= config_.burnThreshold &&
                        eval.slowBurn >= config_.burnThreshold;
    eval.fired = breach && !firing_;
    eval.resolved = !breach && firing_;
    firing_ = breach;
    eval.firing = firing_;
    if (eval.fired)
        ++alertsFired_;
    if (eval.resolved)
        ++alertsResolved_;
    if (firing_)
        ++ticksFiring_;
    return eval;
}

} // namespace anaheim::obs
