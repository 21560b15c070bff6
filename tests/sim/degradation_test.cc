/**
 * @file
 * End-to-end graceful-degradation tests of the framework escalation
 * ladder: permanent faults must be classified by the health monitor,
 * quarantined, and executed around via replan + replay — with GPU
 * fallback reserved for the capacity floor or an exhausted budget —
 * and the whole campaign must stay bitwise deterministic in the fault
 * seed, including across thread counts.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

#include "anaheim/framework.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "support/row_budget.h"
#include "trace/builders.h"

namespace anaheim {
namespace {

/** Chained-HMULT trace long enough to cross checkpoint intervals. */
OpSequence
hmultChain(size_t repeats)
{
    OpSequence seq = buildHMult(TraceParams{});
    const OpSequence one = seq;
    for (size_t r = 1; r < repeats; ++r)
        seq.append(one);
    seq.name = "hmult_chain";
    return seq;
}

/** Full escalation ladder: ECC + checksums + checkpoints + health. */
AnaheimConfig
degradationConfig()
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    ResilienceConfig &rc = config.resilience;
    rc.checksumEnabled = true;
    rc.checkpoint.enabled = true;
    rc.checkpoint.intervalSegments = 8;
    rc.checkpoint.maxRollbacks = 32;
    rc.health.enabled = true;
    rc.health.permanentThreshold = 2;
    return config;
}

/** The first line obs::printAvailability writes for `result`. */
std::string
availabilityLine(const RunResult &result)
{
    std::FILE *out = std::tmpfile();
    if (out == nullptr)
        return "";
    obs::printAvailability(result, out);
    std::rewind(out);
    char line[256] = {};
    const bool read = std::fgets(line, sizeof line, out) != nullptr;
    std::fclose(out);
    return read ? line : "";
}

uint64_t
fallbackCauseSum(const ResilienceStats &res)
{
    return res.gpuFallbacksRetryExhausted +
           res.gpuFallbacksUncheckpointed +
           res.gpuFallbacksCapacityFloor;
}

TEST(Degradation, SinglePermanentBankQuarantinesRemapsAndCompletes)
{
    // The acceptance scenario: one permanently failed bank at a fixed
    // seed. Health monitoring must classify it permanent after
    // repeated deterministic failures, quarantine it, replan on the
    // remaining 511 banks, and finish the run on PIM — zero GPU
    // fallbacks, zero unrecovered corruption.
    AnaheimConfig config = degradationConfig();
    config.resilience.permanentBanks.push_back({2, 17});
    const RunResult result =
        AnaheimFramework(config).execute(hmultChain(2));
    const ResilienceStats &res = result.resilience;

    EXPECT_GT(res.permanentFaultyWords, 0u);
    EXPECT_GT(res.healthErrorEvents, 0u);
    EXPECT_EQ(res.quarantinedBanks, 1u);
    EXPECT_EQ(res.migrations, 1u);
    EXPECT_EQ(res.gpuFallbacks, 0u);
    EXPECT_EQ(res.unrecovered, 0u);
    EXPECT_EQ(result.pimOffline, PimOffline::Online);
    EXPECT_DOUBLE_EQ(result.pimCapacityFraction,
                     (5.0 * 512.0 - 1.0) / (5.0 * 512.0));
    // After the migration the failed bank is out of the datapath: the
    // damage stops accumulating, so the run ends with the same
    // permanent word count a single pre-quarantine window produced.
    // The Quarantine/Migrate phases must be visible on the timeline.
    size_t quarantineEntries = 0;
    size_t migrateEntries = 0;
    for (const GanttEntry &entry : result.timeline) {
        quarantineEntries += entry.phase == "Quarantine" ? 1 : 0;
        migrateEntries += entry.phase == "Migrate" ? 1 : 0;
    }
    EXPECT_EQ(quarantineEntries, 1u);
    EXPECT_EQ(migrateEntries, 1u);
}

TEST(Degradation, HealthDisabledBurnsTheRollbackBudgetAndFallsBack)
{
    // Same single-dead-bank device with the monitor off: replay storms
    // into the stuck site until the rollback budget dies, then the
    // segment is abandoned to the GPU — the pre-quarantine behavior
    // the health monitor exists to avoid.
    AnaheimConfig config = degradationConfig();
    config.resilience.permanentBanks.push_back({2, 17});
    config.resilience.health.enabled = false;
    const RunResult result =
        AnaheimFramework(config).execute(hmultChain(2));
    const ResilienceStats &res = result.resilience;

    EXPECT_EQ(res.rollbacks, 32u); // maxRollbacks
    EXPECT_GT(res.gpuFallbacks, 0u);
    EXPECT_EQ(res.gpuFallbacks, res.gpuFallbacksRetryExhausted);
    EXPECT_EQ(res.migrations, 0u);
    EXPECT_EQ(res.quarantinedBanks, 0u);
    EXPECT_DOUBLE_EQ(result.pimCapacityFraction, 1.0);
}

TEST(Degradation, FallbackCausesAlwaysSumToTheAggregate)
{
    // Across very different escalation paths the per-cause counters
    // must partition the aggregate exactly.
    for (const bool health : {false, true}) {
        for (const bool checkpoint : {false, true}) {
            AnaheimConfig config = degradationConfig();
            config.resilience.permanentBanks.push_back({0, 0});
            config.resilience.health.enabled = health;
            config.resilience.checkpoint.enabled = checkpoint;
            const RunResult result =
                AnaheimFramework(config).execute(hmultChain(2));
            EXPECT_EQ(fallbackCauseSum(result.resilience),
                      result.resilience.gpuFallbacks)
                << "health=" << health << " checkpoint=" << checkpoint;
        }
    }
}

TEST(Degradation, WithoutCheckpointFallbacksAreTaggedUncheckpointed)
{
    AnaheimConfig config = degradationConfig();
    config.resilience.permanentBanks.push_back({0, 0});
    config.resilience.health.enabled = false;
    config.resilience.checkpoint.enabled = false;
    const RunResult result =
        AnaheimFramework(config).execute(hmultChain(2));
    const ResilienceStats &res = result.resilience;
    EXPECT_GT(res.gpuFallbacks, 0u);
    EXPECT_EQ(res.gpuFallbacks, res.gpuFallbacksUncheckpointed);
    EXPECT_EQ(res.gpuFallbacksRetryExhausted, 0u);
}

/** Health on, checkpoints off: the ladder with no snapshot to replay
 *  from. Threshold 1 quarantines a dead site on its first detection. */
AnaheimConfig
uncheckpointedConfig()
{
    AnaheimConfig config = degradationConfig();
    config.resilience.checkpoint.enabled = false;
    config.resilience.health.permanentThreshold = 1;
    return config;
}

/** Timeline entries of executed ops (maintenance phases are unbound). */
size_t
opEntries(const RunResult &result)
{
    size_t count = 0;
    for (const GanttEntry &entry : result.timeline)
        count += entry.bound != BoundBy::None ? 1 : 0;
    return count;
}

TEST(Degradation, UncheckpointedEndOfTraceMismatchQuarantinesWithoutMigrating)
{
    // An all-PIM trace crosses no coherence boundary, so the
    // end-of-trace verify is the first to see a dead lane's damage.
    // The lane is quarantined and the committed outputs surfaced as
    // lost, but no op remains to run on a remapped device: nothing
    // migrates.
    OpSequence seq = buildPMult(TraceParams{});
    const OpSequence one = seq;
    for (size_t r = 1; r < 4; ++r)
        seq.append(one);
    AnaheimConfig config = uncheckpointedConfig();
    config.resilience.permanentLanes.push_back({0, 3});
    const RunResult result = AnaheimFramework(config).execute(seq);
    const ResilienceStats &res = result.resilience;

    EXPECT_EQ(res.checksumChecks, 1u);
    EXPECT_EQ(res.checksumMismatches, 1u);
    EXPECT_EQ(res.quarantinedLanes, 1u);
    EXPECT_EQ(res.unrecovered, 1u);
    EXPECT_EQ(res.migrations, 0u);
    EXPECT_EQ(opEntries(result), seq.ops.size());
}

TEST(Degradation, UncheckpointedCoherenceMismatchSurfacesThenMigrates)
{
    // HMULT's Tensor op runs on PIM and feeds the GPU keyswitch, so the
    // coherence verify catches the dead lane. Quarantine stops further
    // damage, but the verified outputs have committed and there is no
    // snapshot: they are surfaced as lost before execution migrates on
    // past them, and no op replays.
    AnaheimConfig config = uncheckpointedConfig();
    config.resilience.permanentLanes.push_back({0, 3});
    const OpSequence seq = hmultChain(2);
    const RunResult result = AnaheimFramework(config).execute(seq);
    const ResilienceStats &res = result.resilience;

    EXPECT_EQ(res.checksumMismatches, 1u);
    EXPECT_EQ(res.quarantinedLanes, 1u);
    EXPECT_EQ(res.migrations, 1u);
    EXPECT_EQ(res.unrecovered, 1u);
    EXPECT_EQ(res.gpuFallbacks, 0u);
    EXPECT_EQ(opEntries(result), seq.ops.size());
}

TEST(Degradation, UncheckpointedEccExhaustionReRunsTheCaughtOp)
{
    // A dead bank fails every ECC retry of the first PIM op. Those
    // attempts never committed, so once the bank is quarantined the
    // same op re-runs on the healthy subset: nothing is lost, nothing
    // falls back, and that op appears on the timeline twice.
    AnaheimConfig config = uncheckpointedConfig();
    config.resilience.permanentBanks.push_back({2, 17});
    const OpSequence seq = hmultChain(2);
    const RunResult result = AnaheimFramework(config).execute(seq);
    const ResilienceStats &res = result.resilience;

    EXPECT_EQ(res.quarantinedBanks, 1u);
    EXPECT_EQ(res.migrations, 1u);
    EXPECT_EQ(res.gpuFallbacks, 0u);
    EXPECT_EQ(res.unrecovered, 0u);
    EXPECT_EQ(opEntries(result), seq.ops.size() + 1);
}

TEST(Degradation, CapacityFloorSendsRemainingPimWorkToTheGpu)
{
    // A floor just under full capacity: quarantining the two dead
    // banks drops the healthy fraction below it, so the framework
    // must abandon PIM offload instead of running a degraded device
    // it considers slower than the GPU — and still finish clean.
    AnaheimConfig config = degradationConfig();
    config.resilience.permanentBanks.push_back({1, 5});
    config.resilience.permanentBanks.push_back({3, 9});
    config.resilience.health.minCapacityFraction = 0.9999;
    const RunResult result =
        AnaheimFramework(config).execute(hmultChain(2));
    const ResilienceStats &res = result.resilience;

    EXPECT_EQ(result.pimOffline, PimOffline::CapacityFloor);
    EXPECT_NE(availabilityLine(result).find("pim offline (capacity floor)"),
              std::string::npos);
    EXPECT_EQ(res.quarantinedBanks, 2u);
    EXPECT_GT(res.gpuFallbacksCapacityFloor, 0u);
    EXPECT_EQ(res.unrecovered, 0u);
    EXPECT_LT(result.pimCapacityFraction, 0.9999);
}

TEST(Degradation, DegradedPlanThatNoLongerFitsSendsPimWorkToTheGpu)
{
    // The trace ends in a HADD whose operands fill 90% of each bank's
    // rows (support/row_budget.h). Quarantining the dead bank deepens
    // every row group from 4 rows to 5, so the re-planned trace no
    // longer fits: the framework must take PIM offline instead of
    // migrating, and the HADD runs on the GPU. Its ops count under
    // gpuFallbacksCapacityFloor, which counts either cause.
    AnaheimConfig config = degradationConfig();
    config.resilience.permanentBanks.push_back({2, 17});
    OpSequence seq = hmultChain(2);
    seq.append(test_support::nearRowBudgetHAdd());
    const RunResult result = AnaheimFramework(config).execute(seq);
    const ResilienceStats &res = result.resilience;

    EXPECT_EQ(res.quarantinedBanks, 1u);
    EXPECT_EQ(result.pimOffline, PimOffline::PlanNoLongerFits);
    EXPECT_NE(
        availabilityLine(result).find("pim offline (plan no longer fits)"),
        std::string::npos);
    EXPECT_GT(res.gpuFallbacksCapacityFloor, 0u);
    EXPECT_EQ(res.unrecovered, 0u);
    // PIM offload was abandoned, so nothing migrated.
    for (const GanttEntry &entry : result.timeline)
        EXPECT_NE(entry.phase, "Migrate");
}

TEST(Degradation, PermanentLaneFaultIsCaughtByChecksumsAndQuarantined)
{
    // No ECC reaches the MMAC datapath: a dead lane corrupts silently
    // and only the write-back checksum sees it. The monitor must
    // attribute the mismatches to the lane, quarantine it, and the
    // degraded model serializes its multiplies onto the survivors.
    AnaheimConfig config = degradationConfig();
    config.resilience.permanentLanes.push_back({0, 3});
    const RunResult result =
        AnaheimFramework(config).execute(hmultChain(2));
    const ResilienceStats &res = result.resilience;

    EXPECT_GT(res.permanentLaneFaults, 0u);
    EXPECT_GT(res.checksumMismatches, 0u);
    EXPECT_EQ(res.quarantinedLanes, 1u);
    EXPECT_GE(res.migrations, 1u);
    EXPECT_EQ(res.unrecovered, 0u);
    EXPECT_EQ(res.gpuFallbacks, 0u);
    // Banks were never suspects: full bank capacity remains.
    EXPECT_EQ(res.quarantinedBanks, 0u);
    EXPECT_DOUBLE_EQ(result.pimCapacityFraction, 1.0);
}

TEST(Degradation, QuarantineSlowsPimDownButKeepsItFasterThanFallback)
{
    // The degraded device pays real time (511-bank striping is longer
    // per limb), and the fallback path pays much more.
    AnaheimConfig clean = degradationConfig();
    AnaheimConfig degraded = clean;
    degraded.resilience.permanentBanks.push_back({2, 17});
    AnaheimConfig fallback = degraded;
    fallback.resilience.health.enabled = false;

    const OpSequence seq = hmultChain(2);
    const double cleanNs =
        AnaheimFramework(clean).execute(seq).totalNs;
    const double degradedNs =
        AnaheimFramework(degraded).execute(seq).totalNs;
    const double fallbackNs =
        AnaheimFramework(fallback).execute(seq).totalNs;
    EXPECT_GT(degradedNs, cleanNs);
    EXPECT_GT(fallbackNs, degradedNs);
}

TEST(Degradation, CampaignIsBitwiseDeterministicAcrossThreadCounts)
{
    // The whole fault campaign — Monte-Carlo bank draw, transient
    // events, quarantine points, migration replays — must be a pure
    // function of the fault seed, independent of the host pool width
    // (ANAHEIM_THREADS). Counters and simulated time compare exactly.
    AnaheimConfig config = degradationConfig();
    config.resilience.ber = 1e-7;
    config.resilience.permanentBankRate = 2e-3;
    config.resilience.faultSeed = 20260808;
    const OpSequence seq = hmultChain(2);

    const size_t restore = parallelThreadCount();
    setParallelThreads(1);
    const RunResult serial = AnaheimFramework(config).execute(seq);
    setParallelThreads(4);
    const RunResult threaded = AnaheimFramework(config).execute(seq);
    setParallelThreads(restore);

    EXPECT_EQ(serial.totalNs, threaded.totalNs);
    EXPECT_EQ(serial.energyPj, threaded.energyPj);
    const ResilienceStats &a = serial.resilience;
    const ResilienceStats &b = threaded.resilience;
    EXPECT_EQ(a.faultyWords, b.faultyWords);
    EXPECT_EQ(a.permanentFaultyWords, b.permanentFaultyWords);
    EXPECT_EQ(a.pimRetries, b.pimRetries);
    EXPECT_EQ(a.rollbacks, b.rollbacks);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.quarantinedBanks, b.quarantinedBanks);
    EXPECT_EQ(a.quarantinedLanes, b.quarantinedLanes);
    EXPECT_EQ(a.gpuFallbacks, b.gpuFallbacks);
    EXPECT_EQ(a.healthErrorEvents, b.healthErrorEvents);
    EXPECT_EQ(a.unrecovered, b.unrecovered);
    ASSERT_EQ(serial.timeline.size(), threaded.timeline.size());
    for (size_t i = 0; i < serial.timeline.size(); ++i) {
        EXPECT_EQ(serial.timeline[i].startNs,
                  threaded.timeline[i].startNs);
        EXPECT_EQ(serial.timeline[i].phase, threaded.timeline[i].phase);
    }
    // The run actually exercised the machinery under test.
    EXPECT_GT(a.migrations + a.rollbacks + a.gpuFallbacks, 0u);
}

/** Every field of two runs equal, doubles compared as bit patterns. */
void
expectBitwiseEqualRuns(const RunResult &a, const RunResult &b)
{
    const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    EXPECT_EQ(bits(a.totalNs), bits(b.totalNs));
    EXPECT_EQ(bits(a.energyPj), bits(b.energyPj));
    EXPECT_EQ(bits(a.gpuDramBytes), bits(b.gpuDramBytes));
    EXPECT_EQ(bits(a.pimInternalBytes), bits(b.pimInternalBytes));
    EXPECT_EQ(bits(a.pimCapacityFraction), bits(b.pimCapacityFraction));
    EXPECT_EQ(a.pimOffline, b.pimOffline);
    ASSERT_EQ(a.timeNsByCategory.size(), b.timeNsByCategory.size());
    for (const auto &[category, ns] : a.timeNsByCategory) {
        const auto it = b.timeNsByCategory.find(category);
        ASSERT_NE(it, b.timeNsByCategory.end()) << category;
        EXPECT_EQ(bits(ns), bits(it->second)) << category;
    }
    // All-uint64_t counters: equal bytes mean equal values.
    static_assert(std::has_unique_object_representations_v<ResilienceStats>);
    EXPECT_EQ(std::memcmp(&a.resilience, &b.resilience,
                          sizeof(ResilienceStats)),
              0);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (size_t i = 0; i < a.timeline.size(); ++i) {
        const GanttEntry &x = a.timeline[i];
        const GanttEntry &y = b.timeline[i];
        EXPECT_EQ(x.phase, y.phase) << i;
        EXPECT_EQ(x.device, y.device) << i;
        EXPECT_EQ(x.cls, y.cls) << i;
        EXPECT_EQ(bits(x.startNs), bits(y.startNs)) << i;
        EXPECT_EQ(bits(x.endNs), bits(y.endNs)) << i;
        EXPECT_EQ(bits(x.energyPj), bits(y.energyPj)) << i;
        EXPECT_EQ(x.bound, y.bound) << i;
    }
}

TEST(Degradation, RunsOnOneFrameworkShareTheWarmDegradedModel)
{
    // Runs that quarantine the same dead bank borrow one framework-
    // owned model of the degraded geometry: each reproduces a fresh
    // framework's run bitwise, and the second run prices nothing new.
    AnaheimConfig config = degradationConfig();
    config.resilience.permanentBanks.push_back({2, 17});
    const OpSequence seq = hmultChain(2);
    const RunResult fresh = AnaheimFramework(config).execute(seq);
    ASSERT_EQ(fresh.resilience.migrations, 1u);

    const AnaheimFramework shared(config);
    const RunResult first = shared.execute(seq);
    obs::Counter &misses =
        obs::MetricsRegistry::global().counter("pim.model.price_misses");
    const uint64_t missesBefore = misses.value();
    const RunResult second = shared.execute(seq);
    EXPECT_EQ(misses.value(), missesBefore);
    expectBitwiseEqualRuns(first, fresh);
    expectBitwiseEqualRuns(second, fresh);
}

} // namespace
} // namespace anaheim
