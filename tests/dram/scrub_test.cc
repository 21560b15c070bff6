/**
 * @file
 * ScrubEngine pass cost model tests.
 */

#include <gtest/gtest.h>

#include "dram/scrub.h"
#include "support/error_matchers.h"

namespace anaheim {
namespace {

TEST(ScrubEngine, PassCostScalesWithFootprint)
{
    const DramConfig dram = DramConfig::hbm2A100();
    ScrubConfig config;
    config.enabled = true;
    config.intervalNs = 10e3;
    const ScrubEngine scrubber(dram, config);

    const ScrubPassStats small = scrubber.pass(1e6);
    const ScrubPassStats large = scrubber.pass(64e6);
    EXPECT_GT(small.timeNs, 0.0);
    EXPECT_GT(small.energyPj, 0.0);
    EXPECT_GT(large.timeNs, small.timeNs);
    EXPECT_GT(large.energyPj, small.energyPj);
    EXPECT_EQ(large.wordsScrubbed, static_cast<uint64_t>(64e6 / 4));
    // Identical inputs price identically (pure cost model).
    EXPECT_DOUBLE_EQ(scrubber.pass(1e6).timeNs, small.timeNs);
    // Empty footprint costs nothing.
    EXPECT_DOUBLE_EQ(scrubber.pass(0.0).timeNs, 0.0);
}

TEST(ScrubEngine, RejectsNonPositiveInterval)
{
    ScrubConfig config;
    config.enabled = true;
    config.intervalNs = 0.0;
    EXPECT_ANAHEIM_ERROR(ScrubEngine(DramConfig::hbm2A100(), config),
                         InvalidArgument, "scrub interval");
}

} // namespace
} // namespace anaheim
