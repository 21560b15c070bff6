/**
 * @file
 * Scoped-tracing runtime tests: the disabled path records nothing,
 * nesting depths are tracked per thread, spans from spawned threads
 * land in distinct per-thread buffers, and the simulated track keeps
 * run registration separate from host spans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace anaheim::obs {
namespace {

/** Save/restore the global tracing flag and empty the collector so
 *  tests don't leak spans into each other. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        wasEnabled_ = tracingEnabled();
        TraceCollector::global().clear();
    }

    void
    TearDown() override
    {
        setTracingEnabled(wasEnabled_);
        TraceCollector::global().clear();
    }

    bool wasEnabled_ = false;
};

TEST_F(TraceTest, DisabledRecordsNothing)
{
    setTracingEnabled(false);
    {
        OBS_SPAN("test/outer");
        OBS_SPAN("test/inner");
    }
    EXPECT_TRUE(TraceCollector::global().hostSpans().empty());
}

TEST_F(TraceTest, NestedSpansRecordDepths)
{
    setTracingEnabled(true);
    {
        OBS_SPAN("test/outer");
        {
            OBS_SPAN("test/middle");
            OBS_SPAN("test/inner");
        }
        // A sibling after the nested pair reuses depth 1.
        OBS_SPAN("test/sibling");
    }
    setTracingEnabled(false);

    const auto spans = TraceCollector::global().hostSpans();
    ASSERT_EQ(spans.size(), 4u);

    auto depthOf = [&](const std::string &name) -> int {
        for (const HostSpan &span : spans)
            if (name == span.name)
                return static_cast<int>(span.depth);
        return -1;
    };
    EXPECT_EQ(depthOf("test/outer"), 0);
    EXPECT_EQ(depthOf("test/middle"), 1);
    EXPECT_EQ(depthOf("test/inner"), 2);
    EXPECT_EQ(depthOf("test/sibling"), 1);

    for (const HostSpan &span : spans) {
        EXPECT_GE(span.durUs, 0.0) << span.name;
        EXPECT_GE(span.startUs, 0.0) << span.name;
    }
}

TEST_F(TraceTest, ChildSpanNestsInsideParentInterval)
{
    setTracingEnabled(true);
    {
        OBS_SPAN("test/parent");
        OBS_SPAN("test/child");
    }
    setTracingEnabled(false);

    const auto spans = TraceCollector::global().hostSpans();
    ASSERT_EQ(spans.size(), 2u);
    const HostSpan *parent = nullptr;
    const HostSpan *child = nullptr;
    for (const HostSpan &span : spans) {
        if (std::string(span.name) == "test/parent")
            parent = &span;
        else
            child = &span;
    }
    ASSERT_NE(parent, nullptr);
    ASSERT_NE(child, nullptr);
    EXPECT_LE(parent->startUs, child->startUs);
    EXPECT_GE(parent->startUs + parent->durUs,
              child->startUs + child->durUs);
}

TEST_F(TraceTest, SpawnedThreadsGetDistinctTids)
{
    setTracingEnabled(true);
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([] { OBS_SPAN("test/worker"); });
    }
    for (auto &thread : threads)
        thread.join();
    setTracingEnabled(false);

    const auto spans = TraceCollector::global().hostSpans();
    std::vector<uint32_t> tids;
    for (const HostSpan &span : spans) {
        if (std::string(span.name) == "test/worker")
            tids.push_back(span.tid);
    }
    ASSERT_EQ(tids.size(), static_cast<size_t>(kThreads));
    // Every worker span came from its own buffer: all tids distinct.
    std::sort(tids.begin(), tids.end());
    EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end());
    // Worker spans open at depth 0 of their own thread.
    for (const HostSpan &span : spans) {
        if (std::string(span.name) == "test/worker") {
            EXPECT_EQ(span.depth, 0u);
        }
    }
}

TEST_F(TraceTest, DisableMidSpanStillUnwindsDepth)
{
    setTracingEnabled(true);
    {
        OBS_SPAN("test/outer");
        setTracingEnabled(false);
    } // outer closes while disabled; depth must unwind
    setTracingEnabled(true);
    {
        OBS_SPAN("test/after");
    }
    setTracingEnabled(false);

    const auto spans = TraceCollector::global().hostSpans();
    for (const HostSpan &span : spans) {
        if (std::string(span.name) == "test/after") {
            EXPECT_EQ(span.depth, 0u);
        }
    }
}

TEST_F(TraceTest, SimRunsAndSpansRoundTrip)
{
    TraceCollector &collector = TraceCollector::global();
    const uint32_t first = collector.beginRun("Boot");
    const uint32_t second = collector.beginRun("HELR");
    EXPECT_EQ(second, first + 1);

    SimSpan span;
    span.name = "ModUp";
    span.lane = "GPU";
    span.category = "NTT";
    span.run = first;
    span.startUs = 1.5;
    span.durUs = 2.0;
    span.energyPj = 42.0;
    collector.recordSimSpan(span);

    const auto names = collector.runNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[first], "Boot");
    EXPECT_EQ(names[second], "HELR");
    const auto spans = collector.simSpans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].lane, "GPU");
    EXPECT_DOUBLE_EQ(spans[0].energyPj, 42.0);

    collector.clear();
    EXPECT_TRUE(collector.simSpans().empty());
    EXPECT_TRUE(collector.runNames().empty());
}

} // namespace
} // namespace anaheim::obs
