/**
 * @file
 * Permanent-fault health monitoring for the PIM datapath.
 *
 * Transient upsets re-sample on every replay, so retry/rollback makes
 * them go away; a permanent fault (stuck-at cells, a dead bank)
 * deterministically fails every replay into the same site. The HealthMonitor tells the two apart from the error history:
 * it counts detected errors per fault site, and a site that
 * accumulates `permanentThreshold` of them is classified permanent and
 * quarantined. The quarantine set is exposed as a ResourceMap that the
 * layout/planner layers use to allocate around the offline resources
 * and that PimKernelModel uses to price the degraded device.
 *
 * Permanent-fault *injection* lives in FaultConfig (permanentBanks /
 * permanentBankRate); the monitor only ever sees
 * detection events, so a run with health monitoring disabled degrades
 * exactly like the pre-quarantine framework: replay storms into the
 * broken site until the rollback budget dies, then GPU fallback.
 */

#ifndef ANAHEIM_SIM_HEALTH_H
#define ANAHEIM_SIM_HEALTH_H

#include <compare>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace anaheim {

/** Identity of one quarantinable hardware resource: one DRAM bank of
 *  a die group (its storage and its PIM unit). */
struct FaultSiteId {
    /** Every site is a bank; kept because perfbench spells `kind`. */
    enum class Kind { Bank };
    Kind kind = Kind::Bank;
    size_t dieGroup = 0;
    size_t index = 0; ///< bank index within the group

    friend auto operator<=>(const FaultSiteId &,
                            const FaultSiteId &) = default;
};

/** Health-monitor policy knobs (nested in ResilienceConfig). */
struct HealthConfig {
    /** Master switch; off reproduces the pre-quarantine framework. */
    bool enabled = false;
    /** Detected-error events at one site before it is classified
     *  permanent and quarantined. */
    size_t permanentThreshold = 3;
    /** Healthy-bank fraction below which PIM offload is abandoned:
     *  further quarantine would leave the lockstep device slower than
     *  the GPU, so remaining PIM segments run there instead. */
    double minCapacityFraction = 0.5;
};

/**
 * The quarantine set over a fixed device geometry. Banks are
 * quarantined per die group; because all banks of a group run in
 * lockstep, the group degrades to its *healthy* bank count and the
 * device degrades to the worst group (the other groups idle their
 * excess banks while limbs stay group-partitioned).
 */
struct ResourceMap {
    size_t dieGroups = 0;
    size_t banksPerDieGroup = 0;
    /** Unread; kept because perfbench sets it. */
    size_t lanesPerUnit = 0;
    std::vector<FaultSiteId> quarantined; ///< sorted, unique

    bool contains(const FaultSiteId &site) const;
    size_t quarantinedBanks() const { return quarantined.size(); }
    size_t quarantinedBanksInGroup(size_t dieGroup) const;
    /** Offline bank indices of one die group, for the layout. */
    std::vector<size_t> offlineBanksInGroup(size_t dieGroup) const;
    /** Healthy banks / total banks across the device. */
    double bankCapacityFraction() const;
};

class HealthMonitor
{
  public:
    HealthMonitor(const HealthConfig &config, size_t dieGroups,
                  size_t banksPerDieGroup);

    const HealthConfig &config() const { return config_; }
    const ResourceMap &resources() const { return map_; }

    /**
     * Record one detected error attributed to `site`. Returns true when
     * this event pushes the site over the permanent threshold, i.e. the
     * site was *newly* quarantined (the caller should remap). Events
     * against an already-quarantined site are ignored.
     */
    bool recordError(const FaultSiteId &site);

    bool isQuarantined(const FaultSiteId &site) const;
    /** Total error events recorded (including sub-threshold ones). */
    uint64_t errorEvents() const { return events_; }
    /** Healthy-bank capacity left on the device. */
    double capacityFraction() const;
    /** True once capacity fell under config().minCapacityFraction. */
    bool belowCapacityFloor() const;

  private:
    HealthConfig config_;
    ResourceMap map_;
    /** Detected errors per not-yet-quarantined site. */
    std::map<FaultSiteId, size_t> history_;
    uint64_t events_ = 0;
};

/**
 * Deterministic word damage of an access striped over `totalBanks`
 * lockstep banks of which `failedBanks` are permanently broken: the
 * proportional share of `words` (codeword accesses), and never zero
 * while anything is accessed at all — a stuck-at site cannot be missed
 * by a replay, which is exactly what distinguishes it from a
 * transient.
 */
uint64_t permanentFaultyWords(size_t words, size_t failedBanks,
                              size_t totalBanks);

} // namespace anaheim

#endif // ANAHEIM_SIM_HEALTH_H
