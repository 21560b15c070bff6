#include <gtest/gtest.h>

#include "anaheim/planner.h"
#include "anaheim/workloads.h"
#include "sim/health.h"
#include "support/error_matchers.h"
#include "support/row_budget.h"

namespace anaheim {
namespace {

TEST(PimMemoryPlanner, BootstrapFitsA100)
{
    const PimMemoryPlanner planner(DramConfig::hbm2A100(),
                                   PimConfig::nearBankA100());
    const auto plan = planner.plan(makeBootWorkload());
    EXPECT_GT(plan.pimKernels, 0u);
    EXPECT_GT(plan.peakRowsPerBank, 0u);
    EXPECT_TRUE(plan.fits)
        << "peak " << plan.peakRowsPerBank << " rows per bank";
}

TEST(PimMemoryPlanner, PeakTracksTheLargestAccumulation)
{
    // The KeyMult/MAC PAccum over the extended modulus with its evk
    // operands must dominate the per-kernel demand.
    const PimMemoryPlanner planner(DramConfig::hbm2A100(),
                                   PimConfig::nearBankA100());
    const auto boot = makeBootWorkload();
    const auto plan = planner.plan(boot);
    const KernelOp &peak = boot.ops[plan.peakOpIndex];
    EXPECT_TRUE(peak.type == KernelType::EwPAccum ||
                peak.type == KernelType::EwCAccum)
        << kernelTypeName(peak.type);
}

TEST(PimMemoryPlanner, GpuOnlyTraceNeedsNoPimRows)
{
    OpSequence seq;
    seq.name = "compute-only";
    seq.n = 1 << 16;
    KernelOp ntt;
    ntt.type = KernelType::Ntt;
    ntt.n = seq.n;
    ntt.limbs = 54;
    ntt.reads = {{OperandKind::Working, 54}};
    ntt.writes = {{OperandKind::Working, 54}};
    seq.ops.push_back(ntt);
    const PimMemoryPlanner planner(DramConfig::hbm2A100(),
                                   PimConfig::nearBankA100());
    const auto plan = planner.plan(seq);
    EXPECT_EQ(plan.pimKernels, 0u);
    EXPECT_EQ(plan.peakRowsPerBank, 0u);
    EXPECT_TRUE(plan.fits);
}

TEST(PimMemoryPlanner, SmallerDeviceHasTighterBudget)
{
    // The RTX 4090's per-bank capacity (24GB over 384 banks) is larger
    // per bank than the A100's (80GB over 2560), but its die groups are
    // smaller so each bank holds more chunks per limb — the planner
    // must still find bootstrapping feasible on both.
    const PimMemoryPlanner a100(DramConfig::hbm2A100(),
                                PimConfig::nearBankA100());
    const PimMemoryPlanner rtx(DramConfig::gddr6xRtx4090(),
                               PimConfig::nearBankRtx4090());
    const auto boot = makeBootWorkload();
    EXPECT_TRUE(a100.plan(boot).fits);
    EXPECT_TRUE(rtx.plan(boot).fits);
    // The 4090 needs more rows per bank for the same kernel.
    EXPECT_GT(rtx.plan(boot).peakRowsPerBank,
              a100.plan(boot).peakRowsPerBank);
}

TEST(PimMemoryPlanner, FailureAwarePlanAllocatesAroundOfflineBanks)
{
    // A quarantine set tightens the per-healthy-bank budget: the
    // degraded plan needs at least as many rows per bank, and enough
    // quarantine must eventually break feasibility.
    const PimMemoryPlanner planner(DramConfig::hbm2A100(),
                                   PimConfig::nearBankA100());
    const auto boot = makeBootWorkload();
    const auto healthyPlan = planner.plan(boot);

    ResourceMap map;
    map.dieGroups = 5;
    map.banksPerDieGroup = 512;
    map.lanesPerUnit = 8;
    for (size_t b = 0; b < 128; ++b)
        map.quarantined.push_back({FaultSiteId::Kind::Bank, 2, b});
    const auto planOn = [&](const ResourceMap &resources) {
        return PimMemoryPlanner(DramConfig::hbm2A100(),
                                PimConfig::nearBankA100().degraded(resources))
            .plan(boot);
    };
    const auto degradedPlan = planOn(map);
    EXPECT_TRUE(degradedPlan.fits);
    EXPECT_GT(degradedPlan.peakRowsPerBank,
              healthyPlan.peakRowsPerBank);
    // An empty quarantine set reproduces the healthy plan exactly.
    const auto samePlan = planOn(ResourceMap{5, 512, 8, {}});
    EXPECT_EQ(samePlan.peakRowsPerBank, healthyPlan.peakRowsPerBank);
    EXPECT_EQ(samePlan.pimKernels, healthyPlan.pimKernels);
}

TEST(PimMemoryPlanner, OperandRowsPastTheBankBudgetDoNotFit)
{
    // The reject path: 27,600 rows per bank fit the healthy A100's
    // 30,517; one dead bank deepens every row group from 4 rows to 5,
    // and the same operands need 34,500.
    const OpSequence seq = test_support::nearRowBudgetHAdd();
    const auto healthy = PimMemoryPlanner(DramConfig::hbm2A100(),
                                          PimConfig::nearBankA100())
                             .plan(seq);
    EXPECT_EQ(healthy.peakRowsPerBank, 27600u);
    EXPECT_LE(healthy.peakRowsPerBank, test_support::kA100RowBudget);
    EXPECT_TRUE(healthy.fits);

    const ResourceMap oneDeadBank{
        5, 512, 8, {{FaultSiteId::Kind::Bank, 2, 17}}};
    const auto degraded =
        PimMemoryPlanner(DramConfig::hbm2A100(),
                         PimConfig::nearBankA100().degraded(oneDeadBank))
            .plan(seq);
    EXPECT_EQ(degraded.peakRowsPerBank, 34500u);
    EXPECT_GT(degraded.peakRowsPerBank, test_support::kA100RowBudget);
    EXPECT_FALSE(degraded.fits);
}

TEST(PimMemoryPlanner, RejectsImpossibleQuarantineSets)
{
    // The planner runs the kernel model's check (PimConfig::validate)
    // when built, so both see one healthy-bank count.
    PimConfig twice = PimConfig::nearBankA100();
    twice.offlineBanks = {17, 3, 17};
    EXPECT_ANAHEIM_ERROR(PimMemoryPlanner(DramConfig::hbm2A100(), twice),
                         InvalidArgument, "offline bank 17 listed twice");
    PimConfig all = PimConfig::nearBankA100();
    for (size_t b = 0; b < all.banksPerDieGroup; ++b)
        all.offlineBanks.push_back(b);
    EXPECT_ANAHEIM_ERROR(PimMemoryPlanner(DramConfig::hbm2A100(), all),
                         ResourceExhausted, "quarantined");
}

} // namespace
} // namespace anaheim
