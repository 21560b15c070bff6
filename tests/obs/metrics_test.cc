/**
 * @file
 * Metrics-registry tests: find-or-create identity, counter/gauge/
 * histogram arithmetic, kind-mismatch rejection, snapshot ordering,
 * and concurrent updates from many threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "support/error_matchers.h"

namespace anaheim::obs {
namespace {

TEST(Metrics, CounterFindOrCreateReturnsSameInstrument)
{
    Counter &a = MetricsRegistry::global().counter("test.metrics.c1");
    Counter &b = MetricsRegistry::global().counter("test.metrics.c1");
    EXPECT_EQ(&a, &b);
    a.reset();
    a.add();
    a.add(9);
    EXPECT_EQ(b.value(), 10u);
}

TEST(Metrics, GaugeSetAndAdd)
{
    Gauge &gauge = MetricsRegistry::global().gauge("test.metrics.g1");
    gauge.set(2.5);
    gauge.add(1.25);
    EXPECT_DOUBLE_EQ(gauge.value(), 3.75);
    gauge.reset();
    EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(Metrics, HistogramBucketsAndOverflow)
{
    Histogram &hist = MetricsRegistry::global().histogram(
        "test.metrics.h1", {1.0, 10.0, 100.0});
    hist.reset();
    hist.observe(0.5);   // <= 1
    hist.observe(1.0);   // <= 1 (bounds are inclusive)
    hist.observe(5.0);   // <= 10
    hist.observe(500.0); // overflow
    EXPECT_EQ(hist.count(), 4u);
    EXPECT_DOUBLE_EQ(hist.sum(), 506.5);
    const auto counts = hist.bucketCounts();
    ASSERT_EQ(counts.size(), 4u); // 3 bounds + overflow
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 0u);
    EXPECT_EQ(counts[3], 1u);
}

TEST(Metrics, KindMismatchRaises)
{
    MetricsRegistry::global().counter("test.metrics.kind");
    EXPECT_ANAHEIM_ERROR(MetricsRegistry::global().gauge(
                             "test.metrics.kind"),
                         InvalidArgument, "test.metrics.kind");
}

TEST(Metrics, SnapshotIsSortedAndFindable)
{
    MetricsRegistry::global().counter("test.metrics.zz").add(7);
    MetricsRegistry::global().gauge("test.metrics.aa").set(1.5);

    const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
    ASSERT_GE(snapshot.entries.size(), 2u);
    for (size_t i = 1; i < snapshot.entries.size(); ++i) {
        EXPECT_LT(snapshot.entries[i - 1].name, snapshot.entries[i].name);
    }
    const MetricsSnapshot::Entry *entry =
        snapshot.find("test.metrics.aa");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->kind, "gauge");
    EXPECT_DOUBLE_EQ(entry->value, 1.5);
    EXPECT_EQ(snapshot.find("test.metrics.nonexistent"), nullptr);
}

TEST(Metrics, ConcurrentCounterAddsAreLossless)
{
    Counter &counter =
        MetricsRegistry::global().counter("test.metrics.mt");
    counter.reset();
    constexpr int kThreads = 8;
    constexpr int kAddsPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (int i = 0; i < kAddsPerThread; ++i)
                counter.add();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(),
              static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST(Metrics, HistogramDropsNonFiniteAndCountsThem)
{
    Counter &dropped =
        MetricsRegistry::global().counter("obs.dropped_samples");
    const uint64_t droppedBefore = dropped.value();
    Histogram &hist = MetricsRegistry::global().histogram(
        "test.metrics.nonfinite", {1.0, 10.0});
    hist.reset();
    hist.observe(std::numeric_limits<double>::quiet_NaN());
    hist.observe(std::numeric_limits<double>::infinity());
    hist.observe(-std::numeric_limits<double>::infinity());
    hist.observe(5.0);
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_DOUBLE_EQ(hist.sum(), 5.0);
    EXPECT_EQ(dropped.value(), droppedBefore + 3);
}

TEST(Metrics, HistogramCountMatchesBucketsUnderConcurrentResets)
{
    // count() derives from the same bucket array snapshot() reads, so
    // even with reset() racing observe() every view stays internally
    // consistent: count == sum of bucket counts, never a mix of
    // pre-reset buckets with a post-reset total.
    Histogram &hist = MetricsRegistry::global().histogram(
        "test.metrics.race", {1.0, 10.0, 100.0});
    hist.reset();
    std::atomic<bool> stop{false};
    // observe() calls the observer thread has finished. The release
    // fence orders each count before the next call's bucket increment,
    // so a snapshot that sees call k's increment sees at least k - 1
    // finished calls once it passes its acquire fence.
    std::atomic<uint64_t> observed{0};
    std::thread observer([&] {
        int i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            hist.observe(static_cast<double>(++i % 200));
            observed.fetch_add(1, std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_release);
        }
    });
    std::thread resetter([&] {
        for (int i = 0; i < 100; ++i)
            hist.reset();
    });
    for (int i = 0; i < 200; ++i) {
        const auto counts = hist.bucketCounts();
        std::atomic_thread_fence(std::memory_order_acquire);
        const uint64_t finished = observed.load(std::memory_order_relaxed);
        uint64_t total = 0;
        for (uint64_t c : counts)
            total += c;
        // Whatever resets interleave, each bucket holds only samples of
        // calls that reached it, so a snapshot never implies more
        // samples than the finished calls plus the one in flight.
        EXPECT_EQ(counts.size(), 4u);
        EXPECT_LE(total, finished + 1);
    }
    resetter.join();
    stop.store(true, std::memory_order_relaxed);
    observer.join();
    hist.reset();
    hist.observe(2.0);
    EXPECT_EQ(hist.count(), 1u);
}

TEST(Metrics, ResetAllZeroesButKeepsInstruments)
{
    Counter &counter =
        MetricsRegistry::global().counter("test.metrics.reset");
    counter.add(5);
    const size_t before = MetricsRegistry::global().size();
    MetricsRegistry::global().resetAll();
    EXPECT_EQ(MetricsRegistry::global().size(), before);
    EXPECT_EQ(counter.value(), 0u); // same instrument, zeroed
}

} // namespace
} // namespace anaheim::obs
