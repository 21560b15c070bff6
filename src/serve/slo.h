/**
 * @file
 * SLO machinery for the serving scheduler (DESIGN.md §16): a
 * deterministic simulated-time token bucket for per-tenant rate
 * limiting, and a fault-free service-time estimator that prices every
 * tenant trace on the configured device pair so admission can tell
 * whether a deadline is still feasible. The estimator re-prices on a
 * degraded geometry (quarantined banks) via `PimConfig::degraded()`
 * and the failure-aware memory planner, falling back to GPU-only
 * pricing when the degraded plan no longer fits — the serve layer's
 * view of mid-run graceful degradation (§14).
 *
 * Everything here is a pure function of its inputs: no wall clock, no
 * global state, so serve runs stay bitwise reproducible.
 */

#ifndef ANAHEIM_SERVE_SLO_H
#define ANAHEIM_SERVE_SLO_H

#include <cstddef>
#include <vector>

#include "anaheim/framework.h"

namespace anaheim::serve {

/**
 * Token bucket over simulated time. Tokens accrue at `ratePerSec`
 * (requests/second of simulated time) up to `burst`; each admitted
 * request consumes one. `tryAcquire` must be called with
 * non-decreasing timestamps (the scheduler's release times are).
 */
class TokenBucket
{
  public:
    /** Starts full (a fresh tenant may burst immediately). */
    TokenBucket(double ratePerSec, double burst);

    /** Refill up to `nowNs`, then take one token if available.
     *  False = the request is rate-limited. */
    bool tryAcquire(double nowNs);

    double tokens() const { return tokens_; }

  private:
    double ratePerNs_;
    double burst_;
    double tokens_;
    double lastNs_ = 0.0;
};

/**
 * Prices every tenant trace by stepping a resilience-free RunContext
 * on a private framework (the models are analytic; one pricing pass
 * per trace costs the same as one request execution). Deadline
 * admission compares `dispatchNs + estimateNs(t)` against the
 * request's absolute deadline: the estimate is the *earliest possible*
 * completion, so a miss against it is a guaranteed SLO violation and
 * the request is shed rather than executed.
 */
class ServiceEstimator
{
  public:
    /** `traces` must outlive the estimator (the scheduler's own
     *  argument does). Resilience knobs are stripped before pricing:
     *  estimates answer "how long on a clean device", never "how
     *  lucky were this request's fault draws". */
    ServiceEstimator(const AnaheimConfig &config,
                     const std::vector<OpSequence> &traces);

    /** Fault-free service time of traces[index % traces.size()] on the
     *  current device view, in ns. */
    double estimateNs(size_t index) const;

    /**
     * Re-price every trace on the degraded geometry: banks in
     * `resources` are quarantined, so PIM work slows to the worst die
     * group's healthy-bank lockstep (PimConfig::degraded). Traces
     * whose degraded memory plan no longer fits — and every trace when
     * `pimOffline` — are priced GPU-only, exactly the fallback
     * `execute()` takes. Idempotent per capacity level; each call is
     * one re-pricing pass.
     */
    void reprice(const ResourceMap &resources, bool pimOffline);

  private:
    /** Price every trace on `config`; with `checkFit`, traces whose
     *  plan no longer fits `config.pim` are priced GPU-only. */
    void priceAll(const AnaheimConfig &config, bool checkFit);

    AnaheimConfig base_;
    const std::vector<OpSequence> &traces_;
    std::vector<double> estimatesNs_;
};

} // namespace anaheim::serve

#endif // ANAHEIM_SERVE_SLO_H
