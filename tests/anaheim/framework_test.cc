#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "anaheim/framework.h"
#include "anaheim/workloads.h"
#include "gpu/gpumodel.h"
#include "trace/builders.h"

namespace anaheim {
namespace {

double
categoryShare(const RunResult &result, const char *category)
{
    const auto it = result.timeNsByCategory.find(category);
    if (it == result.timeNsByCategory.end())
        return 0.0;
    return it->second / result.totalNs;
}

TEST(GpuModel, ElementWiseOpsAreMemoryBound)
{
    // §IV-D: element-wise ops have < 2 ops/byte; NTT is compute-bound.
    const GpuModel gpu(GpuConfig::a100_80gb(), LibraryProfile::cheddar());
    const auto hadd = buildHAdd(TraceParams{});
    const auto stats = gpu.run(hadd.ops[0]);
    EXPECT_TRUE(stats.memoryBound());

    KernelOp ntt;
    ntt.type = KernelType::Ntt;
    ntt.n = 1 << 16;
    ntt.limbs = 54;
    ntt.reads = {{OperandKind::Working, 54}};
    ntt.writes = {{OperandKind::Working, 54}};
    const auto nttStats = gpu.run(ntt);
    EXPECT_FALSE(nttStats.memoryBound());
}

TEST(GpuModel, CheddarBeatsPhantomOnNtt)
{
    // Fig. 2a: ~1.8x NTT advantage for Cheddar over Phantom.
    KernelOp ntt;
    ntt.type = KernelType::Ntt;
    ntt.n = 1 << 16;
    ntt.limbs = 54;
    ntt.reads = {{OperandKind::Working, 54}};
    ntt.writes = {{OperandKind::Working, 54}};
    const GpuModel cheddar(GpuConfig::a100_80gb(),
                           LibraryProfile::cheddar());
    const GpuModel phantom(GpuConfig::a100_80gb(),
                           LibraryProfile::phantom());
    const double ratio =
        phantom.run(ntt).timeNs / cheddar.run(ntt).timeNs;
    EXPECT_NEAR(ratio, 1.8, 0.2);
}

TEST(GpuModel, EvkOperandsAlwaysStream)
{
    const GpuModel gpu(GpuConfig::a100_80gb(), LibraryProfile::cheddar());
    KernelOp keyMult;
    keyMult.type = KernelType::EwPAccum;
    keyMult.n = 1 << 16;
    keyMult.limbs = 68;
    keyMult.fanIn = 4;
    keyMult.reads = {{OperandKind::Working, 4 * 68},
                     {OperandKind::Evk, 2 * 4 * 68}};
    keyMult.writes = {{OperandKind::Intermediate, 2 * 68}};
    const auto traffic = gpu.traffic(keyMult, true);
    // The evk (136MB+) must be in the DRAM reads even when fused.
    EXPECT_GE(traffic.dramReadBytes, 2 * 4 * 68 * limbBytes(1 << 16));
}

class FrameworkTest : public ::testing::Test
{
  protected:
    RunResult
    run(const OpSequence &seq, AnaheimConfig config)
    {
        const AnaheimFramework framework(config);
        return framework.execute(seq);
    }
};

TEST_F(FrameworkTest, ElementWiseDominatesBootWithoutPim)
{
    // Fig. 2b: element-wise ops are 45-48% of bootstrapping on A100
    // and 68-69% on RTX 4090 with hoisting.
    const auto boot = makeBootWorkload();
    AnaheimConfig a100 = AnaheimConfig::a100NearBank();
    a100.pimEnabled = false;
    const auto resultA100 = run(boot, a100);
    const double shareA100 = categoryShare(resultA100, "ElementWise");
    EXPECT_GT(shareA100, 0.35);
    EXPECT_LT(shareA100, 0.60);

    AnaheimConfig rtx = AnaheimConfig::rtx4090NearBank();
    rtx.pimEnabled = false;
    const auto resultRtx = run(boot, rtx);
    const double shareRtx = categoryShare(resultRtx, "ElementWise");
    EXPECT_GT(shareRtx, shareA100)
        << "RTX 4090's higher compute/BW ratio must raise the share";
}

TEST_F(FrameworkTest, PimSpeedsUpBootstrapping)
{
    const auto boot = makeBootWorkload();
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.pimEnabled = false;
    const auto baseline = run(boot, config);
    config.pimEnabled = true;
    const auto withPim = run(boot, config);

    const double speedup = baseline.totalNs / withPim.totalNs;
    // Fig. 8: 1.24-1.74x on A100 near-bank.
    EXPECT_GT(speedup, 1.1);
    EXPECT_LT(speedup, 2.5);
    // Energy must improve too (1.38-2.05x in the paper).
    EXPECT_GT(baseline.energyPj / withPim.energyPj, 1.1);
}

TEST_F(FrameworkTest, PimReducesGpuSideDramTraffic)
{
    // Fig. 4b: 6.15x lower GPU-side DRAM access with PIM.
    const auto boot = makeBootWorkload();
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.pimEnabled = false;
    const auto baseline = run(boot, config);
    config.pimEnabled = true;
    const auto withPim = run(boot, config);
    const double reduction = baseline.gpuDramBytes / withPim.gpuDramBytes;
    EXPECT_GT(reduction, 2.0);
    EXPECT_LT(reduction, 20.0);
    EXPECT_GT(withPim.pimInternalBytes, 0.0);
}

TEST_F(FrameworkTest, TimelineIsContiguousAndOrdered)
{
    const auto seq = buildHMult(TraceParams{});
    const auto result =
        run(seq, AnaheimConfig::a100NearBank());
    ASSERT_FALSE(result.timeline.empty());
    double cursor = 0.0;
    for (const auto &entry : result.timeline) {
        EXPECT_DOUBLE_EQ(entry.startNs, cursor)
            << "GPU and PIM kernels must not overlap (§V-C)";
        EXPECT_GE(entry.endNs, entry.startNs);
        cursor = entry.endNs;
    }
    EXPECT_DOUBLE_EQ(cursor, result.totalNs);
}

TEST_F(FrameworkTest, VariantSpeedupOrdering)
{
    // Fig. 8: near-bank A100 >= custom-HBM A100 speedups; RTX 4090
    // sees the smallest gains (8x vs 16x internal bandwidth).
    const auto boot = makeBootWorkload();
    auto speedupOf = [&](AnaheimConfig config) {
        config.pimEnabled = false;
        const double base = run(boot, config).totalNs;
        config.pimEnabled = true;
        return base / run(boot, config).totalNs;
    };
    const double nearBank = speedupOf(AnaheimConfig::a100NearBank());
    const double customHbm = speedupOf(AnaheimConfig::a100CustomHbm());
    EXPECT_GT(nearBank, 1.0);
    EXPECT_GT(customHbm, 1.0);
    EXPECT_GE(nearBank, customHbm * 0.95)
        << "custom-HBM should trail (or match) near-bank slightly";
}

TEST_F(FrameworkTest, AllWorkloadsExecuteOnAllConfigs)
{
    const auto workloads = makeAllWorkloads();
    ASSERT_EQ(workloads.size(), 6u);
    for (const auto &config :
         {AnaheimConfig::a100NearBank(), AnaheimConfig::a100CustomHbm(),
          AnaheimConfig::rtx4090NearBank()}) {
        for (const auto &[info, seq] : workloads) {
            const auto result = run(seq, config);
            EXPECT_GT(result.totalNs, 0.0) << info.name;
            EXPECT_GT(result.energyPj, 0.0) << info.name;
        }
    }
}

TEST_F(FrameworkTest, EdpImprovesWithPim)
{
    // Headline: 1.62-3.14x EDP improvement.
    for (const auto &[info, seq] : makeAllWorkloads()) {
        AnaheimConfig config = AnaheimConfig::a100NearBank();
        config.pimEnabled = false;
        const auto base = run(seq, config);
        config.pimEnabled = true;
        const auto pim = run(seq, config);
        EXPECT_GT(base.edp() / pim.edp(), 1.2) << info.name;
    }
}

TEST_F(FrameworkTest, ModSwitchChainsFuseOnTheGpu)
{
    // A GPU op reads its same-phase predecessor's intermediates from
    // cache unless both are element-wise (RunContext::fusesWithPrev),
    // so HRot's INTT -> BConv -> NTT chains skip their DRAM round
    // trips. Alternating two phases breaks every chain.
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.pimEnabled = false;
    const OpSequence hrot = buildHRot(TraceParams{});
    OpSequence unchained = hrot;
    for (size_t i = 0; i < unchained.ops.size(); ++i)
        unchained.ops[i].phase =
            i % 2 == 0 ? TracePhase::ModUp : TracePhase::ModDown;
    const auto fused = run(hrot, config);
    const auto unfused = run(unchained, config);
    EXPECT_LT(fused.gpuDramBytes, unfused.gpuDramBytes);
    EXPECT_LT(fused.totalNs, unfused.totalNs);
}

TEST(CanonicalTimeline, MatchesStableSortOnShuffledTies)
{
    // Executed timelines arrive canonical, so canonicalizeTimeline
    // normally skips its sort; exercise the sort on a shuffled
    // timeline where most entries tie on startNs across devices and
    // phases, and equal keys must keep their relative order.
    const char *devices[] = {"PIM", "GPU", "DRAM"};
    const char *phases[] = {"HMult", "Boot", "Scrub"};
    std::mt19937_64 rng(20261017);
    std::vector<GanttEntry> timeline;
    for (size_t i = 0; i < 600; ++i) {
        GanttEntry entry;
        entry.startNs = static_cast<double>(rng() % 16);
        entry.endNs = entry.startNs + 1.0;
        entry.device = devices[rng() % 3];
        entry.phase = phases[rng() % 3];
        entry.cls = KernelClass::ElementWise;
        // Tags the entry, so the order among equal keys is checked.
        entry.energyPj = static_cast<double>(i);
        timeline.push_back(entry);
    }
    ASSERT_FALSE(timelineIsCanonical(timeline));
    std::vector<GanttEntry> expected = timeline;
    std::stable_sort(expected.begin(), expected.end(), timelineEntryLess);

    canonicalizeTimeline(timeline);
    ASSERT_EQ(timeline.size(), expected.size());
    for (size_t i = 0; i < timeline.size(); ++i) {
        EXPECT_EQ(timeline[i].startNs, expected[i].startNs);
        EXPECT_EQ(timeline[i].device, expected[i].device);
        EXPECT_EQ(timeline[i].phase, expected[i].phase);
        EXPECT_EQ(timeline[i].energyPj, expected[i].energyPj) << i;
    }
    // Already canonical: left exactly as it is.
    std::vector<GanttEntry> again = timeline;
    canonicalizeTimeline(again);
    for (size_t i = 0; i < timeline.size(); ++i)
        EXPECT_EQ(again[i].energyPj, timeline[i].energyPj) << i;
}

} // namespace
} // namespace anaheim
