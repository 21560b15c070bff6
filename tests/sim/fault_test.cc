/**
 * @file
 * Fault-injection + resilience tests across all four layers: the
 * SEC-DED (39,32) code itself, the seedable fault model, the
 * PimFunctionalUnit read path, and AnaheimFramework's
 * retry-then-GPU-fallback policy.
 */

#include <gtest/gtest.h>

#include "anaheim/framework.h"
#include "anaheim/workloads.h"
#include "common/rng.h"
#include "math/primes.h"
#include "pim/functional.h"
#include "poly/checksum.h"
#include "sim/ecc.h"
#include "sim/fault.h"
#include "sim/readpath.h"
#include "support/error_matchers.h"

namespace anaheim {
namespace {

// ---------------------------------------------------------------- ecc

TEST(SecDed, RoundTripsCleanWords)
{
    Rng rng(7);
    for (int trial = 0; trial < 2000; ++trial) {
        const uint32_t word = static_cast<uint32_t>(rng.next());
        const auto decoded = SecDed3932::decode(SecDed3932::encode(word));
        EXPECT_EQ(decoded.outcome, EccOutcome::Clean);
        EXPECT_EQ(decoded.data, word);
    }
    for (uint32_t word : {0u, 1u, 0xffffffffu, 0x0fffffffu}) {
        const auto decoded = SecDed3932::decode(SecDed3932::encode(word));
        EXPECT_EQ(decoded.outcome, EccOutcome::Clean);
        EXPECT_EQ(decoded.data, word);
    }
}

TEST(SecDed, CorrectsEverySingleBitFlip)
{
    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        const uint32_t word = static_cast<uint32_t>(rng.next());
        const uint64_t codeword = SecDed3932::encode(word);
        for (unsigned bit = 0; bit < SecDed3932::kCodeBits; ++bit) {
            const auto decoded =
                SecDed3932::decode(codeword ^ (uint64_t{1} << bit));
            EXPECT_EQ(decoded.outcome, EccOutcome::Corrected)
                << "bit " << bit;
            EXPECT_EQ(decoded.data, word) << "bit " << bit;
        }
    }
}

TEST(SecDed, DetectsEveryDoubleBitFlip)
{
    Rng rng(13);
    for (int trial = 0; trial < 10; ++trial) {
        const uint32_t word = static_cast<uint32_t>(rng.next());
        const uint64_t codeword = SecDed3932::encode(word);
        for (unsigned b1 = 0; b1 < SecDed3932::kCodeBits; ++b1) {
            for (unsigned b2 = b1 + 1; b2 < SecDed3932::kCodeBits; ++b2) {
                const uint64_t corrupted = codeword ^
                                           (uint64_t{1} << b1) ^
                                           (uint64_t{1} << b2);
                EXPECT_EQ(SecDed3932::decode(corrupted).outcome,
                          EccOutcome::Uncorrectable)
                    << "bits " << b1 << "," << b2;
            }
        }
    }
}

// -------------------------------------------------------- fault model

TEST(FaultModel, IdenticalSeedsReproduceIdenticalFaultSites)
{
    FaultConfig config;
    config.ber = 1e-2;
    config.seed = 42;
    const FaultModel modelA(config);
    const FaultModel modelB(config);
    config.seed = 43;
    const FaultModel modelC(config);

    bool anyFault = false;
    bool seedsDiffer = false;
    for (size_t limb = 0; limb < 4; ++limb) {
        for (size_t word = 0; word < 512; ++word) {
            const uint64_t a = modelA.corrupt(0, limb, word, 0, 39);
            const uint64_t b = modelB.corrupt(0, limb, word, 0, 39);
            const uint64_t c = modelC.corrupt(0, limb, word, 0, 39);
            EXPECT_EQ(a, b);
            anyFault |= a != 0;
            seedsDiffer |= a != c;
        }
    }
    EXPECT_TRUE(anyFault);   // 2048 words * 39 bits at 1e-2 BER
    EXPECT_TRUE(seedsDiffer);
}

TEST(FaultModel, EpochResamplesTransientFaults)
{
    FaultConfig config;
    config.ber = 0.5; // every word faulted with near certainty
    const FaultModel model(config);
    bool epochsDiffer = false;
    for (size_t word = 0; word < 64 && !epochsDiffer; ++word) {
        epochsDiffer = model.corrupt(0, 0, word, 0, 39) !=
                       model.corrupt(0, 0, word, 1, 39);
    }
    EXPECT_TRUE(epochsDiffer);
}

TEST(FaultModel, TargetedStuckAtFaultsPersistAcrossEpochs)
{
    FaultConfig config;
    config.targets.push_back({0, 5, 0b11, FaultKind::StuckAtOne});
    const FaultModel model(config);
    for (uint64_t epoch = 0; epoch < 3; ++epoch) {
        EXPECT_EQ(model.corrupt(0, 0, 5, epoch, 39), 0b11u);
        EXPECT_EQ(model.corrupt(0b11, 0, 5, epoch, 39), 0b11u);
    }
    // Other coordinates are untouched.
    EXPECT_EQ(model.corrupt(0, 0, 6, 0, 39), 0u);
    EXPECT_EQ(model.corrupt(0, 1, 5, 0, 39), 0u);
}

TEST(FaultModel, RejectsBadConfiguration)
{
    FaultConfig config;
    config.ber = 1.5;
    EXPECT_ANAHEIM_ERROR(FaultModel model(config), InvalidArgument,
                         "bit-error rate");
    config.ber = 0.0;
    config.targets.push_back({0, 0, 0, FaultKind::Transient});
    EXPECT_ANAHEIM_ERROR(FaultModel model(config), InvalidArgument,
                         "empty bit mask");
}

TEST(FaultModel, EventSamplingIsDeterministicAndScales)
{
    FaultConfig config;
    config.ber = 1e-4;
    config.seed = 99;
    const FaultModel model(config);
    const auto a = model.sampleEvents(1 << 20, 7);
    const auto b = model.sampleEvents(1 << 20, 7);
    EXPECT_EQ(a.faulty, b.faulty);
    EXPECT_EQ(a.singleBit, b.singleBit);
    EXPECT_EQ(a.multiBit, b.multiBit);
    // ~39e-4 faulty words per read: expect thousands over 2^20 reads.
    EXPECT_GT(a.faulty, 1000u);
    EXPECT_GT(a.singleBit, a.multiBit);
    // BER 0 never produces events.
    const FaultModel clean(FaultConfig{});
    EXPECT_EQ(clean.sampleEvents(1 << 20, 7).faulty, 0u);
}

TEST(FaultModel, DatapathSitesAreDisjoint)
{
    // Three targeted faults at the *same array offset* but different
    // fault sites must never shadow each other.
    FaultConfig config;
    config.targets.push_back(
        {0, siteWord(FaultSite::WriteBack, 9), 0b1, FaultKind::Transient});
    config.targets.push_back(
        {0, siteWord(FaultSite::MmacLane, 9), 0b10, FaultKind::Transient});
    const FaultModel model(config);

    // The operand-read site (tag 0) at offset 9 stays clean...
    EXPECT_EQ(model.corrupt(0, 0, 9, 0, 39), 0u);
    // ...the write-back site sees only its own mask...
    EXPECT_EQ(model.corrupt(0, 0, siteWord(FaultSite::WriteBack, 9), 0, 39),
              0b1u);
    // ...and the lane site (corruptLane folds the tag itself) its own.
    EXPECT_EQ(model.corruptLane(0, 0, 9, 0), 0b10u);
}

TEST(FaultModel, LaneEventSamplingIsDeterministicAndUnclassified)
{
    FaultConfig config;
    config.laneBer = 1e-6;
    config.seed = 77;
    const FaultModel model(config);
    const auto a = model.sampleLaneEvents(1 << 22, 3);
    const auto b = model.sampleLaneEvents(1 << 22, 3);
    EXPECT_EQ(a.faulty, b.faulty);
    // ~28e-6 per lane op over 4M ops: expect on the order of 100 hits.
    EXPECT_GT(a.faulty, 0u);
    // No ECC on the lane: no single/multi classification exists.
    EXPECT_EQ(a.singleBit, 0u);
    EXPECT_EQ(a.multiBit, 0u);
    // A zero rate never produces lane events.
    const FaultModel clean(FaultConfig{});
    EXPECT_EQ(clean.sampleLaneEvents(1 << 22, 3).faulty, 0u);
}

TEST(FaultModel, RetentionSamplingIsKeyedByWindow)
{
    FaultConfig config;
    config.retentionBerPerWindow = 1e-4;
    config.seed = 78;
    const FaultModel model(config);
    const auto a = model.sampleRetention(1, 1 << 20);
    EXPECT_EQ(a.faulty, model.sampleRetention(1, 1 << 20).faulty);
    EXPECT_GT(a.faulty, 0u);
    EXPECT_EQ(a.faulty, a.singleBit + a.multiBit);
    EXPECT_GT(a.singleBit, a.multiBit); // singles dominate at low rates
    // Distinct refresh windows draw independently.
    bool differs = false;
    for (uint64_t window = 2; window < 8 && !differs; ++window)
        differs = model.sampleRetention(window, 1 << 20).faulty != a.faulty;
    EXPECT_TRUE(differs);
    EXPECT_EQ(model.sampleRetention(1, 0).faulty, 0u);
}

// ----------------------------------------------------- pim read path

class ReadPathTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kQ = 268369921; // 28-bit NTT prime

    PimVector
    randomVector(size_t n, uint64_t seed)
    {
        Rng rng(seed);
        PimVector v(n);
        for (auto &x : v)
            x = static_cast<uint32_t>(rng.uniform(kQ));
        return v;
    }
};

TEST_F(ReadPathTest, SingleBitFlipIsCorrectedExactly)
{
    const PimFunctionalUnit golden(kQ);
    PimFunctionalUnit unit(kQ);
    const auto a = randomVector(256, 1);
    const auto b = randomVector(256, 2);

    FaultConfig faults;
    // One flipped bit in operand a's word 17, one in operand b's
    // word 40 (slot 1): both inside SEC's reach.
    faults.targets.push_back(
        {0, operandWord(0, 17), uint64_t{1} << 12, FaultKind::Transient});
    faults.targets.push_back(
        {0, operandWord(1, 40), uint64_t{1} << 3, FaultKind::Transient});
    PimDataPath path(faults, /*eccEnabled=*/true);
    unit.attachReadPath(&path);

    EXPECT_EQ(unit.add(a, b), golden.add(a, b));
    EXPECT_EQ(path.counters().corrected, 2u);
    EXPECT_EQ(path.counters().uncorrectable, 0u);
    EXPECT_EQ(path.counters().silent, 0u);
    EXPECT_FALSE(path.uncorrectableSeen());
}

TEST_F(ReadPathTest, DoubleBitFlipIsDetectedUncorrectable)
{
    PimFunctionalUnit unit(kQ);
    const auto a = randomVector(64, 3);

    FaultConfig faults;
    faults.targets.push_back(
        {0, operandWord(0, 9), 0b101, FaultKind::Transient});
    PimDataPath path(faults, /*eccEnabled=*/true);
    unit.attachReadPath(&path);

    unit.move(a);
    EXPECT_EQ(path.counters().uncorrectable, 1u);
    EXPECT_TRUE(path.uncorrectableSeen());
    path.clearUncorrectableSeen();
    EXPECT_FALSE(path.uncorrectableSeen());
}

TEST_F(ReadPathTest, WithoutEccFaultsAreSilent)
{
    const PimFunctionalUnit golden(kQ);
    PimFunctionalUnit unit(kQ);
    const auto a = randomVector(64, 4);

    FaultConfig faults;
    faults.targets.push_back(
        {0, operandWord(0, 9), uint64_t{1} << 2, FaultKind::Transient});
    PimDataPath path(faults, /*eccEnabled=*/false);
    unit.attachReadPath(&path);

    const auto out = unit.move(a);
    EXPECT_NE(out, golden.move(a)); // corruption reached the output
    EXPECT_EQ(path.counters().silent, 1u);
    EXPECT_EQ(path.counters().corrected, 0u);
    EXPECT_EQ(path.counters().uncorrectable, 0u);
    EXPECT_FALSE(path.uncorrectableSeen()); // nothing detected it
}

TEST_F(ReadPathTest, WriteBackSingleBitFlipIsCorrected)
{
    const PimFunctionalUnit golden(kQ);
    PimFunctionalUnit unit(kQ);
    const auto a = randomVector(256, 9);
    const auto b = randomVector(256, 10);

    FaultConfig faults;
    // One flipped driver bit while storing result word 17: the next
    // read's SEC decode repairs it in place.
    faults.targets.push_back(
        {0, siteWord(FaultSite::WriteBack, operandWord(0, 17)),
         uint64_t{1} << 7, FaultKind::Transient});
    PimDataPath path(faults, /*eccEnabled=*/true);
    unit.attachReadPath(&path);

    EXPECT_EQ(unit.add(a, b), golden.add(a, b));
    EXPECT_EQ(path.counters().wordsWritten, a.size());
    EXPECT_EQ(path.counters().corrected, 1u);
    EXPECT_EQ(path.counters().silent, 0u);
    EXPECT_FALSE(path.uncorrectableSeen());
}

TEST_F(ReadPathTest, WriteBackDoubleBitFlipIsUncorrectable)
{
    PimFunctionalUnit unit(kQ);
    const auto a = randomVector(64, 11);
    const auto b = randomVector(64, 12);

    FaultConfig faults;
    faults.targets.push_back(
        {0, siteWord(FaultSite::WriteBack, operandWord(0, 9)), 0b101,
         FaultKind::Transient});
    PimDataPath path(faults, /*eccEnabled=*/true);
    unit.attachReadPath(&path);

    unit.add(a, b);
    EXPECT_EQ(path.counters().uncorrectable, 1u);
    EXPECT_TRUE(path.uncorrectableSeen());
}

TEST_F(ReadPathTest, LaneFaultIsSilentUntilAChecksumCatchesIt)
{
    const PimFunctionalUnit golden(kQ);
    PimFunctionalUnit unit(kQ);
    const auto a = randomVector(128, 13);
    const auto b = randomVector(128, 14);
    const PimVector clean = golden.mult(a, b);

    FaultConfig faults;
    // A post-multiply transient flip inside lane op 33. ECC never sees
    // the 28-bit MMAC datapath, so nothing on the unit detects it.
    faults.targets.push_back(
        {0, siteWord(FaultSite::MmacLane, 33), uint64_t{1} << 2,
         FaultKind::Transient});
    PimDataPath path(faults, /*eccEnabled=*/true);
    unit.attachReadPath(&path);

    const PimVector out = unit.mult(a, b);
    size_t diffs = 0;
    for (size_t i = 0; i < out.size(); ++i)
        diffs += out[i] != clean[i];
    EXPECT_EQ(diffs, 1u);
    EXPECT_NE(out[33], clean[33]);
    EXPECT_EQ(path.counters().laneFaults, 1u);
    EXPECT_EQ(path.counters().silent, 1u);
    EXPECT_EQ(path.counters().corrected, 0u);
    EXPECT_EQ(path.counters().uncorrectable, 0u);
    EXPECT_FALSE(path.uncorrectableSeen());
    // The limb-level rolling checksum downstream does catch it.
    EXPECT_NE(limbChecksum(out), limbChecksum(clean));
}

TEST_F(ReadPathTest, StuckAtSiteFailsEveryReplayGeneration)
{
    // The nextEpoch() contract: transient BER faults re-sample on a
    // replay, stuck-at faults persist by construction. A retry/replay
    // loop into a stuck-at site must therefore fail deterministically
    // on every generation — the signature the health monitor uses to
    // classify a site permanent.
    PimFunctionalUnit unit(kQ);
    auto a = randomVector(64, 21);
    a[9] = 0; // encode(0) has bits 0/2 clear: StuckAtOne lands 2 flips
    FaultConfig faults;
    faults.targets.push_back(
        {0, operandWord(0, 9), 0b101, FaultKind::StuckAtOne});
    PimDataPath path(faults, /*eccEnabled=*/true);
    unit.attachReadPath(&path);

    for (uint64_t generation = 0; generation < 4; ++generation) {
        path.clearUncorrectableSeen();
        unit.move(a);
        EXPECT_TRUE(path.uncorrectableSeen())
            << "generation " << generation;
        path.nextEpoch(); // the replay that would clear a transient
    }
    EXPECT_EQ(path.counters().uncorrectable, 4u);
    EXPECT_EQ(path.counters().corrected, 0u);
}

TEST_F(ReadPathTest, TransientFaultsResampleAcrossReplayGenerations)
{
    // The counterpart: at a heavy transient BER some words that failed
    // in one generation read clean in the next — replay is the right
    // response to a transient, and only to a transient.
    PimFunctionalUnit unit(kQ);
    const auto a = randomVector(256, 22);
    FaultConfig faults;
    faults.ber = 1e-3;
    faults.seed = 4321;
    PimDataPath path(faults, /*eccEnabled=*/true);
    unit.attachReadPath(&path);

    std::vector<uint64_t> faultyPerGen;
    for (uint64_t generation = 0; generation < 4; ++generation) {
        path.resetCounters();
        unit.move(a);
        faultyPerGen.push_back(path.counters().faultyWords);
        path.nextEpoch();
    }
    bool differs = false;
    for (size_t g = 1; g < faultyPerGen.size(); ++g)
        differs |= faultyPerGen[g] != faultyPerGen[0];
    EXPECT_TRUE(differs);
}

TEST_F(ReadPathTest, EccKeepsOutputsExactUnderModerateBer)
{
    const PimFunctionalUnit golden(kQ);
    PimFunctionalUnit unit(kQ);
    const auto a = randomVector(4096, 5);
    const auto b = randomVector(4096, 6);

    FaultConfig faults;
    faults.ber = 1e-4; // single-bit territory: ~32 upsets in 16k reads
    faults.seed = 1234;
    PimDataPath path(faults, /*eccEnabled=*/true);
    unit.attachReadPath(&path);

    const auto out = unit.mult(a, b);
    if (path.counters().uncorrectable == 0) {
        EXPECT_EQ(out, golden.mult(a, b));
        EXPECT_EQ(path.counters().silent, 0u);
    }
    EXPECT_GT(path.counters().faultyWords, 0u);
    EXPECT_GT(path.counters().corrected, 0u);
}

TEST_F(ReadPathTest, DetachedPathIsBitwiseIdenticalGoldenPath)
{
    const PimFunctionalUnit golden(kQ);
    PimFunctionalUnit unit(kQ);
    FaultConfig faults;
    faults.ber = 1e-2;
    PimDataPath path(faults, true);
    unit.attachReadPath(&path);
    unit.attachReadPath(nullptr); // detach again

    const auto a = randomVector(128, 7);
    const auto b = randomVector(128, 8);
    EXPECT_EQ(unit.add(a, b), golden.add(a, b));
    EXPECT_EQ(unit.mult(a, b), golden.mult(a, b));
    EXPECT_EQ(unit.tensor(a, b, a, b), golden.tensor(a, b, a, b));
}

// ------------------------------------------------ framework fallback

class FrameworkResilienceTest : public ::testing::Test
{
  protected:
    RunResult
    run(double ber, bool ecc, uint64_t seed = 0x0ddfa117u)
    {
        AnaheimConfig config = AnaheimConfig::a100NearBank();
        config.resilience.ber = ber;
        config.resilience.eccEnabled = ecc;
        config.resilience.faultSeed = seed;
        const AnaheimFramework framework(config);
        return framework.execute(buildHMult(TraceParams{}));
    }
};

TEST_F(FrameworkResilienceTest, ZeroBerLeavesTimingAndEnergyUntouched)
{
    const RunResult clean = run(0.0, true);
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    const AnaheimFramework baseline(config);
    const RunResult reference =
        baseline.execute(buildHMult(TraceParams{}));
    EXPECT_DOUBLE_EQ(clean.totalNs, reference.totalNs);
    EXPECT_DOUBLE_EQ(clean.energyPj, reference.energyPj);
    EXPECT_EQ(clean.resilience.faultyWords, 0u);
    EXPECT_EQ(clean.resilience.pimRetries, 0u);
    EXPECT_EQ(clean.resilience.gpuFallbacks, 0u);
}

TEST_F(FrameworkResilienceTest, UncorrectableEventsRetryThenFallBack)
{
    // At BER 1e-3, a multi-megaword PIM segment sees double-bit events
    // with near certainty on every attempt: the framework must charge
    // retries and then abandon the segment to the GPU.
    const RunResult faulty = run(1e-3, true);
    const RunResult clean = run(0.0, true);
    EXPECT_GT(faulty.resilience.eccUncorrectable, 0u);
    EXPECT_GT(faulty.resilience.pimRetries, 0u);
    EXPECT_GT(faulty.resilience.gpuFallbacks, 0u);
    EXPECT_GT(faulty.totalNs, clean.totalNs);
    EXPECT_GT(faulty.energyPj, clean.energyPj);
    // Each fallback shows up as a GPU timeline entry re-running the
    // abandoned segment.
    size_t gpuEntries = 0;
    for (const auto &entry : faulty.timeline)
        gpuEntries += entry.device == "GPU";
    size_t cleanGpuEntries = 0;
    for (const auto &entry : clean.timeline)
        cleanGpuEntries += entry.device == "GPU";
    EXPECT_EQ(gpuEntries,
              cleanGpuEntries + faulty.resilience.gpuFallbacks);
}

TEST_F(FrameworkResilienceTest, RetryBudgetBoundsReplays)
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.ber = 1e-3;
    config.resilience.maxPimRetries = 0;
    const AnaheimFramework framework(config);
    const RunResult result =
        framework.execute(buildHMult(TraceParams{}));
    EXPECT_EQ(result.resilience.pimRetries, 0u);
    EXPECT_GT(result.resilience.gpuFallbacks, 0u);
}

TEST_F(FrameworkResilienceTest, WithoutEccFaultsPassSilently)
{
    const RunResult result = run(1e-3, false);
    EXPECT_GT(result.resilience.silentErrors, 0u);
    EXPECT_EQ(result.resilience.pimRetries, 0u);
    EXPECT_EQ(result.resilience.gpuFallbacks, 0u);
    EXPECT_EQ(result.resilience.eccCorrected, 0u);
    // Undetected faults cost nothing in time: same schedule as clean.
    const RunResult clean = run(0.0, true);
    EXPECT_DOUBLE_EQ(result.totalNs, clean.totalNs);
}

TEST_F(FrameworkResilienceTest, IdenticalSeedsReproduceIdenticalRuns)
{
    const RunResult a = run(1e-4, true, 7);
    const RunResult b = run(1e-4, true, 7);
    const RunResult c = run(1e-4, true, 8);
    EXPECT_DOUBLE_EQ(a.totalNs, b.totalNs);
    EXPECT_EQ(a.resilience.faultyWords, b.resilience.faultyWords);
    EXPECT_EQ(a.resilience.eccCorrected, b.resilience.eccCorrected);
    EXPECT_EQ(a.resilience.pimRetries, b.resilience.pimRetries);
    EXPECT_EQ(a.resilience.gpuFallbacks, b.resilience.gpuFallbacks);
    EXPECT_NE(a.resilience.faultyWords, c.resilience.faultyWords);
}

} // namespace
} // namespace anaheim
