#include "slo.h"

#include <algorithm>
#include <memory>

#include "anaheim/planner.h"
#include "anaheim/runcontext.h"
#include "common/logging.h"

namespace anaheim::serve {

TokenBucket::TokenBucket(double ratePerSec, double burst)
    : ratePerNs_(ratePerSec * 1e-9), burst_(burst), tokens_(burst)
{
    ANAHEIM_ASSERT(ratePerSec > 0.0, "rate limiter needs a positive rate");
    ANAHEIM_ASSERT(burst >= 1.0, "rate limiter burst must be >= 1");
}

bool
TokenBucket::tryAcquire(double nowNs)
{
    ANAHEIM_ASSERT(nowNs >= lastNs_, "token bucket time moved backwards");
    tokens_ = std::min(burst_, tokens_ + (nowNs - lastNs_) * ratePerNs_);
    lastNs_ = nowNs;
    if (tokens_ < 1.0)
        return false;
    tokens_ -= 1.0;
    return true;
}

namespace {

/** Price one trace on `fw`: a resilience-free RunContext stepped to
 *  completion. */
double
priceTrace(const AnaheimFramework &fw, const OpSequence &seq)
{
    RunContext ctx(fw, seq);
    while (!ctx.done())
        ctx.step();
    return ctx.finish().totalNs;
}

} // namespace

ServiceEstimator::ServiceEstimator(const AnaheimConfig &config,
                                   const std::vector<OpSequence> &traces)
    : base_(config), traces_(traces)
{
    ANAHEIM_ASSERT(!traces.empty(), "estimator needs at least one trace");
    // Estimates answer "how long on a clean device": strip every
    // fault/recovery knob so pricing never samples a fault stream.
    base_.resilience = ResilienceConfig{};
    priceAll(base_, false);
}

double
ServiceEstimator::estimateNs(size_t index) const
{
    return estimatesNs_[index % estimatesNs_.size()];
}

void
ServiceEstimator::reprice(const ResourceMap &resources, bool pimOffline)
{
    AnaheimConfig degraded = base_;
    if (pimOffline) {
        degraded.pimEnabled = false;
        priceAll(degraded, false);
        return;
    }
    degraded.pim = base_.pim.degraded(resources);
    priceAll(degraded, true);
}

void
ServiceEstimator::priceAll(const AnaheimConfig &config, bool checkFit)
{
    const AnaheimFramework fw(config);
    // GPU-only pricing for traces whose degraded plan no longer fits:
    // the framework redirects their PIM segments to the GPU, so the
    // estimate must, too. Built lazily — the healthy path never pays.
    AnaheimConfig gpuOnly = config;
    gpuOnly.pimEnabled = false;
    std::unique_ptr<AnaheimFramework> gpuFw;

    estimatesNs_.resize(traces_.size());
    for (size_t t = 0; t < traces_.size(); ++t) {
        if (!checkFit ||
            PimMemoryPlanner(config.dram, config.pim).plan(traces_[t]).fits) {
            estimatesNs_[t] = priceTrace(fw, traces_[t]);
        } else {
            if (!gpuFw)
                gpuFw = std::make_unique<AnaheimFramework>(gpuOnly);
            estimatesNs_[t] = priceTrace(*gpuFw, traces_[t]);
        }
    }
}

} // namespace anaheim::serve
