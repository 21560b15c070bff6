/**
 * @file
 * Time-series telemetry tests (DESIGN.md §17): log-bucket layout math,
 * window materialization over simulated time (idle gaps, ring
 * wrap-around, late drops), windowed quantiles, registry namespacing
 * and the burn-rate evaluator's fire/resolve edges.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "support/error_matchers.h"

namespace anaheim::obs {
namespace {

TEST(LogBuckets, IndexLayoutAndBounds)
{
    // Underflow: everything below 1 (and non-numeric garbage the
    // caller failed to drop) lands in bucket 0.
    EXPECT_EQ(LogBuckets::index(0.0), 0u);
    EXPECT_EQ(LogBuckets::index(0.999), 0u);
    EXPECT_EQ(LogBuckets::index(-5.0), 0u);

    // First octave [1, 2) spans buckets 1..4.
    EXPECT_EQ(LogBuckets::index(1.0), 1u);
    EXPECT_EQ(LogBuckets::index(1.99), 4u);
    // Octave boundaries advance by kSubPerOctave.
    EXPECT_EQ(LogBuckets::index(2.0), 5u);
    EXPECT_EQ(LogBuckets::index(4.0), 9u);

    // Beyond 2^40: overflow bucket.
    EXPECT_EQ(LogBuckets::index(std::ldexp(1.0, 41)), LogBuckets::kCount - 1);
    EXPECT_EQ(LogBuckets::index(std::numeric_limits<double>::max()),
              LogBuckets::kCount - 1);
}

TEST(LogBuckets, EveryValueFallsInsideItsBucket)
{
    // Sweep decades; index() must agree with lowerBound() and the next
    // bucket's lowerBound() — this pins the <= ~9% relative-error
    // guarantee the header advertises.
    for (double v = 1.0; v < std::ldexp(1.0, 39); v *= 1.37) {
        const size_t i = LogBuckets::index(v);
        ASSERT_LT(i, LogBuckets::kCount - 1) << v;
        EXPECT_GE(v, LogBuckets::lowerBound(i)) << v;
        EXPECT_LT(v, LogBuckets::lowerBound(i + 1)) << v;
        const double mid = LogBuckets::midpoint(i);
        EXPECT_GE(mid, LogBuckets::lowerBound(i));
        EXPECT_LE(mid, LogBuckets::lowerBound(i + 1));
    }
}

TEST(TimeSeries, EmptySeriesSnapshotsEmpty)
{
    TimeSeries series("test.ts.empty", 1000.0, 8);
    const SeriesSnapshot snap = series.snapshot();
    EXPECT_TRUE(snap.points.empty());
    EXPECT_EQ(snap.droppedLate, 0u);
    EXPECT_EQ(snap.evictedWindows, 0u);
}

TEST(TimeSeries, EmptyWindowExportsZeroes)
{
    TimeSeries series("test.ts.zero", 1000.0, 8);
    series.advanceTo(500.0); // materialize window 0, observe nothing
    const SeriesSnapshot snap = series.snapshot();
    ASSERT_EQ(snap.points.size(), 1u);
    const SeriesPoint &p = snap.points[0];
    EXPECT_EQ(p.count, 0u);
    EXPECT_DOUBLE_EQ(p.sum, 0.0);
    EXPECT_DOUBLE_EQ(p.p50, 0.0);
    EXPECT_DOUBLE_EQ(p.p99, 0.0);
    EXPECT_DOUBLE_EQ(p.ratePerSec(), 0.0);
    EXPECT_DOUBLE_EQ(p.mean(), 0.0);
}

TEST(TimeSeries, ObservationsLandInTheirWindows)
{
    TimeSeries series("test.ts.windows", 1000.0, 8);
    series.observe(100.0, 4.0);
    series.observe(900.0, 8.0);
    series.observe(1100.0, 16.0);
    const SeriesSnapshot snap = series.snapshot();
    ASSERT_EQ(snap.points.size(), 2u);
    EXPECT_DOUBLE_EQ(snap.points[0].startNs, 0.0);
    EXPECT_EQ(snap.points[0].count, 2u);
    EXPECT_DOUBLE_EQ(snap.points[0].sum, 12.0);
    EXPECT_DOUBLE_EQ(snap.points[0].min, 4.0);
    EXPECT_DOUBLE_EQ(snap.points[0].max, 8.0);
    EXPECT_DOUBLE_EQ(snap.points[1].startNs, 1000.0);
    EXPECT_EQ(snap.points[1].count, 1u);
    // One event in a 1000 ns window = 1e6 events per simulated second.
    EXPECT_DOUBLE_EQ(snap.points[1].ratePerSec(), 1e6);
}

TEST(TimeSeries, IdleGapsMaterializeAsZeroWindows)
{
    TimeSeries series("test.ts.gap", 1000.0, 16);
    series.observe(100.0, 1.0);
    series.observe(5500.0, 1.0); // windows 1..4 were idle
    const SeriesSnapshot snap = series.snapshot();
    ASSERT_EQ(snap.points.size(), 6u);
    for (size_t i = 1; i <= 4; ++i) {
        EXPECT_EQ(snap.points[i].count, 0u) << i;
        EXPECT_DOUBLE_EQ(snap.points[i].startNs, 1000.0 * i);
    }
    EXPECT_EQ(snap.points[5].count, 1u);
}

TEST(TimeSeries, RingWrapEvictsOldestWindows)
{
    TimeSeries series("test.ts.wrap", 1000.0, 4);
    for (int w = 0; w < 10; ++w)
        series.observe(w * 1000.0 + 500.0, static_cast<double>(w));
    const SeriesSnapshot snap = series.snapshot();
    ASSERT_EQ(snap.points.size(), 4u);
    EXPECT_EQ(snap.evictedWindows, 6u);
    // The ring keeps the most recent windows, oldest first.
    EXPECT_DOUBLE_EQ(snap.points.front().startNs, 6000.0);
    EXPECT_DOUBLE_EQ(snap.points.back().startNs, 9000.0);
    EXPECT_DOUBLE_EQ(snap.points.back().sum, 9.0);
}

TEST(TimeSeries, LateObservationsAreDroppedAndCounted)
{
    TimeSeries series("test.ts.late", 1000.0, 2);
    series.observe(500.0, 1.0);
    series.observe(9500.0, 1.0); // ring now starts at window 8
    series.observe(700.0, 1.0);  // window 0 was evicted: late
    const SeriesSnapshot snap = series.snapshot();
    EXPECT_EQ(snap.droppedLate, 1u);
    // The first sample's window was itself evicted by the forward jump,
    // so only the recent observation survives in the ring.
    uint64_t total = 0;
    for (const SeriesPoint &p : snap.points)
        total += p.count;
    EXPECT_EQ(total, 1u);
}

TEST(TimeSeries, NonFiniteAndNegativeTimeDropped)
{
    Counter &dropped =
        MetricsRegistry::global().counter("obs.dropped_samples");
    const uint64_t before = dropped.value();
    TimeSeries series("test.ts.nonfinite", 1000.0, 8);
    series.observe(100.0, std::numeric_limits<double>::quiet_NaN());
    series.observe(100.0, std::numeric_limits<double>::infinity());
    series.observe(-5.0, 1.0);
    EXPECT_EQ(dropped.value(), before + 3);
    EXPECT_TRUE(series.snapshot().points.empty());
}

TEST(TimeSeries, QuantilesBracketTheSamplesAndStayOrdered)
{
    TimeSeries series("test.ts.quant", 1000.0, 8);
    // 90 fast observations and ten 100x outliers: p50 must sit near
    // the bulk, p99 must see the tail, both clamped into [min, max].
    for (int i = 0; i < 90; ++i)
        series.observe(10.0 * i, 100.0);
    for (int i = 0; i < 10; ++i)
        series.observe(900.0 + i, 10000.0);
    const SeriesSnapshot snap = series.snapshot();
    ASSERT_EQ(snap.points.size(), 1u);
    const SeriesPoint &p = snap.points[0];
    EXPECT_EQ(p.count, 100u);
    EXPECT_GE(p.p50, p.min);
    EXPECT_LE(p.p50, 120.0); // within one log bucket of the bulk
    EXPECT_GE(p.p99, 1000.0); // sees the tail
    EXPECT_LE(p.p99, p.max);
    EXPECT_LE(p.p50, p.p99);
}

TEST(TimeSeries, TailTotalsSumTheMostRecentWindows)
{
    TimeSeries series("test.ts.tail", 1000.0, 8);
    for (int w = 0; w < 5; ++w)
        series.observe(w * 1000.0 + 500.0, 2.0);
    const auto [count, sum] = series.tailTotals(2);
    EXPECT_EQ(count, 2u);
    EXPECT_DOUBLE_EQ(sum, 4.0);
    const auto [all, allSum] = series.tailTotals(100);
    EXPECT_EQ(all, 5u);
    EXPECT_DOUBLE_EQ(allSum, 10.0);
}

TEST(TimeSeries, SubTickEventsShareOneWindow)
{
    // Tick far larger than the event spacing: everything lands in one
    // window (the scheduler's tick can exceed single event gaps).
    TimeSeries series("test.ts.subtick", 1e9, 8);
    for (int i = 0; i < 50; ++i)
        series.observe(i * 10.0, 1.0);
    const SeriesSnapshot snap = series.snapshot();
    ASSERT_EQ(snap.points.size(), 1u);
    EXPECT_EQ(snap.points[0].count, 50u);
}

TEST(TimeSeriesRegistryTest, FindOrCreateAndTickMismatch)
{
    TimeSeries &a =
        TimeSeriesRegistry::global().series("test.reg.a", 1000.0);
    TimeSeries &b =
        TimeSeriesRegistry::global().series("test.reg.a", 1000.0);
    EXPECT_EQ(&a, &b);
    EXPECT_ANAHEIM_ERROR(
        TimeSeriesRegistry::global().series("test.reg.a", 2000.0),
        InvalidArgument, "test.reg.a");
}

TEST(TimeSeriesRegistryTest, EpochsAreMonotone)
{
    const uint64_t first = TimeSeriesRegistry::global().beginEpoch();
    const uint64_t second = TimeSeriesRegistry::global().beginEpoch();
    EXPECT_LT(first, second);
}

TEST(TimeSeriesRegistryTest, SnapshotAllIsSortedByName)
{
    TimeSeriesRegistry::global().series("test.reg.zz", 500.0);
    TimeSeriesRegistry::global().series("test.reg.mm", 500.0);
    const auto snaps = TimeSeriesRegistry::global().snapshotAll();
    ASSERT_GE(snaps.size(), 2u);
    for (size_t i = 1; i < snaps.size(); ++i)
        EXPECT_LE(snaps[i - 1].name, snaps[i].name);
}

TEST(BurnRate, FiresOnlyWhenBothWindowsBurn)
{
    BurnRateConfig config;
    config.sloTarget = 0.9; // error budget: 10% misses
    config.fastWindowTicks = 2;
    config.slowWindowTicks = 4;
    config.burnThreshold = 1.0;
    BurnRateEvaluator burn(config);

    // Healthy traffic: no burn.
    for (int i = 0; i < 4; ++i) {
        const auto eval = burn.update(100, 100);
        EXPECT_FALSE(eval.firing);
        EXPECT_DOUBLE_EQ(eval.fastBurn, 0.0);
    }

    // One bad window: fast window burns, slow window still diluted by
    // three healthy windows -> (25 bad / 400 total) / 0.1 < 1.
    auto eval = burn.update(75, 100);
    EXPECT_GT(eval.fastBurn, 1.0);
    EXPECT_LT(eval.slowBurn, 1.0);
    EXPECT_FALSE(eval.firing);
    EXPECT_FALSE(eval.fired);

    // Sustained burn: both windows cross the threshold -> one fired
    // edge, then steady firing.
    eval = burn.update(50, 100);
    EXPECT_TRUE(eval.firing);
    EXPECT_TRUE(eval.fired);
    eval = burn.update(50, 100);
    EXPECT_TRUE(eval.firing);
    EXPECT_FALSE(eval.fired) << "no re-fire while already firing";
    EXPECT_EQ(burn.alertsFired(), 1u);
    EXPECT_EQ(burn.ticksFiring(), 2u);

    // Recovery: the fast window clears first, and the alert resolves.
    bool resolved = false;
    for (int i = 0; i < 4 && !resolved; ++i)
        resolved = burn.update(100, 100).resolved;
    EXPECT_TRUE(resolved);
    EXPECT_FALSE(burn.firing());
    EXPECT_EQ(burn.alertsResolved(), 1u);
}

TEST(BurnRate, ZeroTrafficBurnsNothing)
{
    BurnRateConfig config;
    config.fastWindowTicks = 1;
    config.slowWindowTicks = 2;
    BurnRateEvaluator burn(config);
    for (int i = 0; i < 5; ++i) {
        const auto eval = burn.update(0, 0);
        EXPECT_FALSE(eval.firing);
        EXPECT_DOUBLE_EQ(eval.fastBurn, 0.0);
        EXPECT_DOUBLE_EQ(eval.slowBurn, 0.0);
    }
}

TEST(BurnRate, TotalFailureBurnsAtFullRate)
{
    BurnRateConfig config;
    config.sloTarget = 0.95;
    config.fastWindowTicks = 1;
    config.slowWindowTicks = 1;
    BurnRateEvaluator burn(config);
    const auto eval = burn.update(0, 100);
    // All traffic failing burns budget at 1/(1-0.95) = 20x.
    EXPECT_NEAR(eval.fastBurn, 20.0, 1e-9);
    EXPECT_TRUE(eval.firing);
}

} // namespace
} // namespace anaheim::obs
