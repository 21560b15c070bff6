/**
 * @file
 * SLO-machinery unit tests: the simulated-time token bucket must
 * refill/clamp deterministically, and the service estimator must price
 * traces fault-free, inflate PIM-heavy estimates on a degraded
 * geometry, and fall back to GPU-only pricing when PIM is offline or
 * the degraded plan no longer fits.
 */

#include <gtest/gtest.h>

#include "anaheim/framework.h"
#include "serve/slo.h"
#include "sim/health.h"
#include "support/row_budget.h"
#include "trace/builders.h"

namespace anaheim {
namespace {

OpSequence
pimHeavyTrace()
{
    const TraceParams params;
    OpSequence seq = buildHAdd(params);
    const OpSequence add = seq;
    const OpSequence mult = buildPMult(params);
    seq.append(mult);
    for (size_t r = 1; r < 20; ++r) {
        seq.append(add);
        seq.append(mult);
    }
    seq.name = "ew";
    return seq;
}

TEST(TokenBucket, ConsumesAndRefillsOverSimulatedTime)
{
    // 5e8 requests/second = 0.5 tokens per simulated ns.
    serve::TokenBucket bucket(5e8, 2.0);
    EXPECT_EQ(bucket.tokens(), 2.0); // starts full: bursts admit

    EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_FALSE(bucket.tryAcquire(0.0)); // burst spent
    EXPECT_FALSE(bucket.tryAcquire(1.0)); // only 0.5 accrued
    EXPECT_TRUE(bucket.tryAcquire(2.0));  // 1.0 accrued
    EXPECT_FALSE(bucket.tryAcquire(2.0));
}

TEST(TokenBucket, RefillClampsAtBurst)
{
    serve::TokenBucket bucket(5e8, 2.0);
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    // A long idle gap accrues far more than burst; the clamp caps the
    // backlog a tenant can bank.
    EXPECT_TRUE(bucket.tryAcquire(1e9));
    EXPECT_TRUE(bucket.tryAcquire(1e9));
    EXPECT_FALSE(bucket.tryAcquire(1e9));
}

TEST(ServiceEstimator, PricesTracesFaultFree)
{
    // Estimates must be identical with and without resilience knobs:
    // they answer "how long on a clean device".
    AnaheimConfig faulty = AnaheimConfig::a100NearBank();
    faulty.resilience.ber = 1e-5;
    faulty.resilience.checksumEnabled = true;
    const std::vector<OpSequence> traces = {pimHeavyTrace()};

    const serve::ServiceEstimator clean(AnaheimConfig::a100NearBank(),
                                        traces);
    const serve::ServiceEstimator stripped(faulty, traces);
    EXPECT_GT(clean.estimateNs(0), 0.0);
    EXPECT_EQ(clean.estimateNs(0), stripped.estimateNs(0));
    // The price is a clean-device execution of the trace.
    EXPECT_EQ(clean.estimateNs(0),
              AnaheimFramework(AnaheimConfig::a100NearBank())
                  .execute(traces[0])
                  .totalNs);
    // Indexing cycles like stream->trace assignment does.
    EXPECT_EQ(clean.estimateNs(7), clean.estimateNs(0));
}

TEST(ServiceEstimator, RepricesOnDegradedGeometry)
{
    const AnaheimConfig config = AnaheimConfig::a100NearBank();
    const std::vector<OpSequence> traces = {pimHeavyTrace()};
    serve::ServiceEstimator estimator(config, traces);
    const double healthyNs = estimator.estimateNs(0);

    // Quarantine a sizeable slice of one die group: the lockstep
    // device follows its worst group, so PIM work must slow down.
    ResourceMap resources;
    resources.dieGroups = config.pim.dieGroups;
    resources.banksPerDieGroup = config.pim.banksPerDieGroup;
    for (size_t b = 0; b < config.pim.banksPerDieGroup / 4; ++b)
        resources.quarantined.push_back(
            {FaultSiteId::Kind::Bank, 0, b});
    estimator.reprice(resources, false);
    EXPECT_GT(estimator.estimateNs(0), healthyNs);
}

TEST(ServiceEstimator, PimOfflineFallsBackToGpuPricing)
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    const std::vector<OpSequence> traces = {pimHeavyTrace()};
    serve::ServiceEstimator estimator(config, traces);

    estimator.reprice(ResourceMap{}, true);

    // Everything runs on the GPU now: the estimate equals a GPU-only
    // execution of the trace.
    AnaheimConfig gpuOnly = config;
    gpuOnly.pimEnabled = false;
    EXPECT_EQ(estimator.estimateNs(0),
              AnaheimFramework(gpuOnly).execute(traces[0]).totalNs);
}

TEST(ServiceEstimator, DegradedPlanThatNoLongerFitsPricesGpuOnly)
{
    // One dead bank pushes this trace's PIM operands past the row
    // budget (support/row_budget.h): execute() would redirect its PIM
    // work to the GPU, so the estimate must be the GPU-only price.
    const AnaheimConfig config = AnaheimConfig::a100NearBank();
    const std::vector<OpSequence> traces = {
        test_support::nearRowBudgetHAdd()};
    serve::ServiceEstimator estimator(config, traces);
    AnaheimConfig gpuOnly = config;
    gpuOnly.pimEnabled = false;
    const double gpuOnlyNs =
        AnaheimFramework(gpuOnly).execute(traces[0]).totalNs;
    EXPECT_NE(estimator.estimateNs(0), gpuOnlyNs);

    const ResourceMap oneDeadBank{
        config.pim.dieGroups, config.pim.banksPerDieGroup,
        config.pim.lanes, {{FaultSiteId::Kind::Bank, 0, 17}}};
    estimator.reprice(oneDeadBank, false);
    EXPECT_EQ(estimator.estimateNs(0), gpuOnlyNs);
}

} // namespace
} // namespace anaheim
