#include "health.h"

#include <algorithm>

#include "common/status.h"

namespace anaheim {

bool
ResourceMap::contains(const FaultSiteId &site) const
{
    return std::binary_search(quarantined.begin(), quarantined.end(),
                              site);
}

size_t
ResourceMap::quarantinedBanks() const
{
    size_t count = 0;
    for (const FaultSiteId &site : quarantined)
        count += site.kind == FaultSiteId::Kind::Bank ? 1 : 0;
    return count;
}

size_t
ResourceMap::quarantinedLanes() const
{
    return quarantined.size() - quarantinedBanks();
}

size_t
ResourceMap::quarantinedBanksInGroup(size_t dieGroup) const
{
    size_t count = 0;
    for (const FaultSiteId &site : quarantined) {
        if (site.kind == FaultSiteId::Kind::Bank &&
            site.dieGroup == dieGroup)
            ++count;
    }
    return count;
}

size_t
ResourceMap::quarantinedLanesInGroup(size_t dieGroup) const
{
    size_t count = 0;
    for (const FaultSiteId &site : quarantined) {
        if (site.kind == FaultSiteId::Kind::MmacLane &&
            site.dieGroup == dieGroup)
            ++count;
    }
    return count;
}

size_t
ResourceMap::maxQuarantinedLanesPerGroup() const
{
    size_t worst = 0;
    for (size_t g = 0; g < dieGroups; ++g)
        worst = std::max(worst, quarantinedLanesInGroup(g));
    return worst;
}

std::vector<size_t>
ResourceMap::offlineBanksInGroup(size_t dieGroup) const
{
    std::vector<size_t> banks;
    for (const FaultSiteId &site : quarantined) {
        if (site.kind == FaultSiteId::Kind::Bank &&
            site.dieGroup == dieGroup)
            banks.push_back(site.index);
    }
    return banks;
}

double
ResourceMap::bankCapacityFraction() const
{
    const size_t total = dieGroups * banksPerDieGroup;
    if (total == 0)
        return 1.0;
    const size_t offline = std::min(quarantinedBanks(), total);
    return static_cast<double>(total - offline) /
           static_cast<double>(total);
}

HealthMonitor::HealthMonitor(const HealthConfig &config,
                             size_t dieGroups, size_t banksPerDieGroup,
                             size_t lanesPerUnit)
    : config_(config)
{
    ANAHEIM_CHECK(config_.permanentThreshold >= 1, InvalidArgument,
                  "permanent threshold must be >= 1, got ",
                  config_.permanentThreshold);
    ANAHEIM_CHECK(config_.minCapacityFraction >= 0.0 &&
                      config_.minCapacityFraction <= 1.0,
                  InvalidArgument,
                  "capacity floor must be in [0, 1], got ",
                  config_.minCapacityFraction);
    map_.dieGroups = dieGroups;
    map_.banksPerDieGroup = banksPerDieGroup;
    map_.lanesPerUnit = lanesPerUnit;
}

bool
HealthMonitor::recordError(const FaultSiteId &site)
{
    ANAHEIM_CHECK(site.dieGroup < map_.dieGroups, InvalidArgument,
                  "fault site die group ", site.dieGroup,
                  " outside the device's ", map_.dieGroups);
    const size_t span = site.kind == FaultSiteId::Kind::Bank
                            ? map_.banksPerDieGroup
                            : map_.lanesPerUnit;
    ANAHEIM_CHECK(site.index < span, InvalidArgument,
                  "fault site index ", site.index,
                  " outside the resource span ", span);
    if (map_.contains(site))
        return false;
    ++events_;
    if (++history_[site] < config_.permanentThreshold)
        return false;
    // Classified permanent: quarantine the site (sorted insert keeps
    // ResourceMap::contains O(log n)) and drop its history.
    map_.quarantined.insert(
        std::upper_bound(map_.quarantined.begin(),
                         map_.quarantined.end(), site),
        site);
    history_.erase(site);
    return true;
}

bool
HealthMonitor::isQuarantined(const FaultSiteId &site) const
{
    return map_.contains(site);
}

double
HealthMonitor::capacityFraction() const
{
    return map_.bankCapacityFraction();
}

bool
HealthMonitor::belowCapacityFloor() const
{
    return capacityFraction() < config_.minCapacityFraction;
}

uint64_t
permanentFaultyWords(size_t words, size_t failedUnits,
                     size_t totalUnits)
{
    if (failedUnits == 0 || words == 0 || totalUnits == 0)
        return 0;
    const size_t failed = std::min(failedUnits, totalUnits);
    const uint64_t share =
        static_cast<uint64_t>(static_cast<double>(words) *
                              static_cast<double>(failed) /
                              static_cast<double>(totalUnits));
    return std::max<uint64_t>(share, 1);
}

} // namespace anaheim
