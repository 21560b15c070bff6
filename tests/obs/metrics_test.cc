/**
 * @file
 * Metrics-registry tests: find-or-create identity, counter/gauge
 * arithmetic, kind-mismatch rejection, snapshot ordering, and
 * concurrent updates from many threads.
 */

#include <gtest/gtest.h>

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
