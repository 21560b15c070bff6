/**
 * @file
 * HealthMonitor / ResourceMap unit tests: permanent-fault
 * classification from error history, quarantine bookkeeping over the
 * lockstep device geometry, and the deterministic permanent-damage
 * model of failed banks.
 */

#include <gtest/gtest.h>

#include "sim/fault.h"
#include "sim/health.h"
#include "support/error_matchers.h"

namespace anaheim {
namespace {

HealthConfig
enabledConfig(size_t threshold = 3)
{
    HealthConfig config;
    config.enabled = true;
    config.permanentThreshold = threshold;
    return config;
}

// ------------------------------------------------------ health monitor

TEST(HealthMonitor, QuarantinesASiteAtThePermanentThreshold)
{
    HealthMonitor monitor(enabledConfig(3), 5, 512);
    const FaultSiteId bank{FaultSiteId::Kind::Bank, 2, 17};
    EXPECT_FALSE(monitor.recordError(bank));
    EXPECT_FALSE(monitor.recordError(bank));
    EXPECT_FALSE(monitor.isQuarantined(bank));
    // The third strike classifies the site permanent.
    EXPECT_TRUE(monitor.recordError(bank));
    EXPECT_TRUE(monitor.isQuarantined(bank));
    EXPECT_EQ(monitor.errorEvents(), 3u);
    EXPECT_EQ(monitor.resources().quarantinedBanks(), 1u);
}

TEST(HealthMonitor, ErrorsAgainstAQuarantinedSiteAreIgnored)
{
    HealthMonitor monitor(enabledConfig(1), 5, 512);
    const FaultSiteId bank{FaultSiteId::Kind::Bank, 0, 3};
    EXPECT_TRUE(monitor.recordError(bank));
    // Already quarantined: never reported as *newly* quarantined again
    // and not double-counted in the quarantine set.
    EXPECT_FALSE(monitor.recordError(bank));
    EXPECT_EQ(monitor.resources().quarantinedBanks(), 1u);
}

TEST(HealthMonitor, DistinctSitesAccumulateIndependently)
{
    HealthMonitor monitor(enabledConfig(2), 5, 512);
    const FaultSiteId bankA{FaultSiteId::Kind::Bank, 1, 7};
    const FaultSiteId bankB{FaultSiteId::Kind::Bank, 1, 8};
    EXPECT_FALSE(monitor.recordError(bankA));
    EXPECT_FALSE(monitor.recordError(bankB));
    EXPECT_TRUE(monitor.recordError(bankA));
    EXPECT_FALSE(monitor.isQuarantined(bankB));
    EXPECT_EQ(monitor.resources().quarantinedBanks(), 1u);
}

TEST(HealthMonitor, CapacityFloorTracksQuarantinedBanks)
{
    HealthConfig config = enabledConfig(1);
    config.minCapacityFraction = 0.75;
    HealthMonitor monitor(config, 2, 4); // 8 banks total
    EXPECT_DOUBLE_EQ(monitor.capacityFraction(), 1.0);
    EXPECT_FALSE(monitor.belowCapacityFloor());
    monitor.recordError({FaultSiteId::Kind::Bank, 0, 0});
    EXPECT_DOUBLE_EQ(monitor.capacityFraction(), 7.0 / 8.0);
    EXPECT_FALSE(monitor.belowCapacityFloor()); // 0.875 >= 0.75
    monitor.recordError({FaultSiteId::Kind::Bank, 0, 1});
    monitor.recordError({FaultSiteId::Kind::Bank, 1, 2});
    EXPECT_DOUBLE_EQ(monitor.capacityFraction(), 5.0 / 8.0);
    EXPECT_TRUE(monitor.belowCapacityFloor());
}

TEST(HealthMonitor, RejectsBadConfigurationAndCoordinates)
{
    HealthConfig config = enabledConfig(0);
    EXPECT_ANAHEIM_ERROR(HealthMonitor(config, 5, 512),
                         InvalidArgument, "threshold");
    config = enabledConfig(1);
    config.minCapacityFraction = 1.5;
    EXPECT_ANAHEIM_ERROR(HealthMonitor(config, 5, 512),
                         InvalidArgument, "capacity");
    HealthMonitor monitor(enabledConfig(1), 5, 512);
    EXPECT_ANAHEIM_ERROR(
        monitor.recordError({FaultSiteId::Kind::Bank, 5, 0}),
        InvalidArgument, "die group");
    EXPECT_ANAHEIM_ERROR(
        monitor.recordError({FaultSiteId::Kind::Bank, 0, 512}),
        InvalidArgument, "resource span");
}

// -------------------------------------------------------- resource map

TEST(ResourceMap, GroupQueriesAndWorstGroup)
{
    HealthMonitor monitor(enabledConfig(1), 3, 16);
    monitor.recordError({FaultSiteId::Kind::Bank, 0, 2});
    monitor.recordError({FaultSiteId::Kind::Bank, 2, 5});
    monitor.recordError({FaultSiteId::Kind::Bank, 2, 9});
    const ResourceMap &map = monitor.resources();

    EXPECT_EQ(map.quarantinedBanks(), 3u);
    EXPECT_EQ(map.quarantinedBanksInGroup(0), 1u);
    EXPECT_EQ(map.quarantinedBanksInGroup(1), 0u);
    EXPECT_EQ(map.quarantinedBanksInGroup(2), 2u);
    EXPECT_EQ(map.offlineBanksInGroup(2),
              (std::vector<size_t>{5, 9}));
    EXPECT_TRUE(map.offlineBanksInGroup(1).empty());
    // 45 healthy of 48 banks.
    EXPECT_DOUBLE_EQ(map.bankCapacityFraction(), 45.0 / 48.0);
}

// -------------------------------------------- permanent damage model

TEST(PermanentFaultyWords, ProportionalAndNeverZeroWhileAccessing)
{
    // No failed units or no accesses: no damage.
    EXPECT_EQ(permanentFaultyWords(1000, 0, 512), 0u);
    EXPECT_EQ(permanentFaultyWords(0, 3, 512), 0u);
    // Proportional share of the lockstep stripe.
    EXPECT_EQ(permanentFaultyWords(5120, 1, 512), 10u);
    EXPECT_EQ(permanentFaultyWords(5120, 8, 512), 80u);
    // A stuck-at site cannot be missed by a replay: even when the
    // proportional share rounds to zero, at least one word is hit —
    // this is exactly what makes the failure deterministic across
    // retries, unlike a transient.
    EXPECT_EQ(permanentFaultyWords(10, 1, 512), 1u);
    EXPECT_EQ(permanentFaultyWords(1, 1, 512), 1u);
}

TEST(PermanentBankSampling, DeterministicPerSeedAndEpochFree)
{
    FaultConfig config;
    config.permanentBankRate = 5e-3;
    config.faultSeed = 1234;
    const FaultModel model(config);
    const auto a = model.samplePermanentBanks(5, 512);
    const auto b = model.samplePermanentBanks(5, 512);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].dieGroup, b[i].dieGroup);
        EXPECT_EQ(a[i].bank, b[i].bank);
    }
    EXPECT_GT(a.size(), 0u); // ~13 expected failures over 2560 banks
    // A different seed draws a different device.
    config.faultSeed = 1235;
    const auto c = FaultModel(config).samplePermanentBanks(5, 512);
    bool differs = c.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i)
        differs = !(a[i].dieGroup == c[i].dieGroup &&
                    a[i].bank == c[i].bank);
    EXPECT_TRUE(differs);
}

TEST(PermanentBankSampling, ExplicitBanksMergeWithTheDraw)
{
    FaultConfig config;
    config.permanentBanks.push_back({1, 7});
    config.permanentBanks.push_back({1, 7}); // duplicate collapses
    config.permanentBanks.push_back({0, 3});
    const FaultModel model(config);
    const auto banks = model.samplePermanentBanks(5, 512);
    ASSERT_EQ(banks.size(), 2u); // sorted by (dieGroup, bank), unique
    EXPECT_EQ(banks[0].dieGroup, 0u);
    EXPECT_EQ(banks[0].bank, 3u);
    EXPECT_EQ(banks[1].dieGroup, 1u);
    EXPECT_EQ(banks[1].bank, 7u);
    // Out-of-range explicit banks are dropped, not an error (a config
    // written for a bigger device still runs on a smaller one).
    EXPECT_TRUE(model.samplePermanentBanks(1, 3).empty());
}

} // namespace
} // namespace anaheim
