/**
 * @file
 * Multi-tenant serving scheduler (DESIGN.md §15/§16): admits N
 * concurrent client streams of op traces against ONE simulated GPU+PIM
 * device pair and advances them in global simulated-time order. The
 * GPU and PIM are separately-clocked resources, so GPU compute of one
 * trace overlaps PIM execution of independent traces; compatible
 * element-wise PIM steps from different streams batch into one fused
 * dispatch whose followers skip the GPU<->PIM transition charge.
 *
 * On top of the PR-8 scheduler sits the SLO/resilience layer (§16):
 * per-tenant token-bucket rate limiting and deadline-aware shedding
 * (three disjoint rejection causes), priority preemption at step
 * boundaries with checkpoint-coordinated save/restore, and mid-serve
 * degradation awareness — a quarantine observed in any run re-prices
 * all queued work on the degraded geometry and re-checks admission.
 *
 * Everything is event-driven simulated time on top of RunContext —
 * no wall-clock threads — so a serve run is a deterministic pure
 * function of (config, traces, seeds), bit-identical across host
 * thread counts and reruns.
 */

#ifndef ANAHEIM_SERVE_SCHEDULER_H
#define ANAHEIM_SERVE_SCHEDULER_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "anaheim/framework.h"
#include "serve/config.h"

namespace anaheim::serve {

/** Why a request never executed. The three causes partition
 *  `ServeStats::rejected` exactly. */
enum class RejectCause {
    None,        ///< not rejected
    QueueFull,   ///< arrival found maxQueuedPerStream already waiting
    RateLimited, ///< the tenant's token bucket was empty at arrival
    DeadlineShed ///< earliest-possible completion already missed the
                 ///< deadline at dispatch (or at a degradation
                 ///< re-pricing pass)
};

/** One client request: a full trace execution with its lifecycle
 *  timestamps in global simulated time. */
struct ServeRequest {
    size_t stream = 0;
    size_t index = 0;
    /** When the request entered the system: its generated arrival
     *  (serve/arrival.h). */
    double arrivalNs = 0.0;
    /** First simulated instant the request held a device. */
    double startNs = 0.0;
    /** Completion time; latency is endNs - arrivalNs. */
    double endNs = 0.0;
    /** Never executed (queue-full, rate-limited, or deadline-shed —
     *  see `cause`). */
    bool rejected = false;
    RejectCause cause = RejectCause::None;
    /** Absolute completion deadline (+inf when deadline-free). */
    double deadlineNs = std::numeric_limits<double>::infinity();
    /** Completed with endNs <= deadlineNs (the goodput criterion). */
    bool deadlineMet = false;
    RunResult result;
};

/** Per-stream (per-tenant) outcome. */
struct ServeStreamResult {
    std::string name;
    /** Scheduling class; lower wins ties at equal dispatch time. */
    size_t priority = 0;
    std::vector<ServeRequest> requests;
    /** Resilience accounting summed over the stream's completed
     *  requests — the per-tenant fault bill, also published as
     *  run.<id>.serve.* gauges when tracing. */
    uint64_t pimRetries = 0;
    uint64_t rollbacks = 0;
    uint64_t gpuFallbacks = 0;
    uint64_t migrations = 0;
    uint64_t unrecovered = 0;
};

/** Aggregate serving statistics over one scheduler run. */
struct ServeStats {
    double makespanNs = 0.0;
    double gpuBusyNs = 0.0;
    double pimBusyNs = 0.0;
    /** Requests that reached a run slot (every one completes). */
    uint64_t admitted = 0;
    /** Requests that never executed; always equals
     *  rejectedQueueFull + rejectedRateLimited + shedDeadline. */
    uint64_t rejected = 0;
    uint64_t completed = 0;
    /** Rejection causes (partition `rejected` exactly). */
    uint64_t rejectedQueueFull = 0;
    uint64_t rejectedRateLimited = 0;
    uint64_t shedDeadline = 0;
    /** Completed requests that met their deadline (every completion
     *  when deadlines are off). */
    uint64_t deadlineMet = 0;
    /** Preemption events (a higher-priority step interrupted a
     *  started lower-priority run) and the matching resumes. */
    uint64_t preemptions = 0;
    uint64_t preemptionResumes = 0;
    /** Device time spent on preemption save/restore passes. */
    double preemptionOverheadNs = 0.0;
    /** Degradation re-pricing passes (a run's quarantine reduced the
     *  device view; queued work re-admitted against it). */
    uint64_t repriceEvents = 0;
    /** SLO burn-rate alerting (telemetry.tickNs > 0): fire/resolve
     *  edges and ticks spent in the firing state (DESIGN.md §17). */
    uint64_t alertsFired = 0;
    uint64_t alertsResolved = 0;
    uint64_t alertTicksFiring = 0;
    /** Fused PIM dispatches covering >= 2 streams. */
    uint64_t batches = 0;
    /** Ops that rode inside those fused dispatches. */
    uint64_t batchedOps = 0;
    /** End-to-end latency (endNs - arrivalNs) per completed request,
     *  in completion order. */
    std::vector<double> latenciesNs = {};

    /** Nearest-rank percentile of latenciesNs; p is clamped into
     *  [0, 100] (p=0 -> minimum, p=100 -> maximum), and an empty
     *  sample returns 0. */
    double percentileNs(double p) const;
    double throughputRps() const;
    /** Deadline-met completions per second — the SLO goodput. */
    double goodputRps() const;
    double gpuUtil() const;
    double pimUtil() const;
};

struct ServeResult {
    ServeStats stats;
    std::vector<ServeStreamResult> streams;
};

/**
 * The scheduler itself. `run()` consumes one trace per stream (cycled
 * when fewer traces than streams are given) and returns when every
 * request has resolved (completed or rejected).
 *
 * Dispatch rule: among streams with an active run, pick the candidate
 * minimizing (dispatch time, priority, stream index) — or (priority,
 * dispatch time, stream index) with preemption on — where dispatch
 * time = max(run clock, device-free time of the resource its next step
 * occupies); with overlap disabled both resources share one free time,
 * which serializes the whole system and serves as the baseline.
 * Admission is re-checked against every chosen dispatch time, so a
 * request arriving before the winner would start is admitted first.
 *
 * Cost: the candidates, batch followers, pending arrivals and slots to
 * refill are indexed (DESIGN.md §15, dispatch_index.h), so one dispatch
 * costs O(log S) host time plus the steps it runs; only run set-up and
 * tear-down, and the queue re-check after a degradation re-pricing,
 * visit every stream. What a run reports besides its ServeResult —
 * series, spans, metrics — is recorded by ServeTelemetry
 * (telemetry.h).
 */
class ServeScheduler
{
  public:
    ServeScheduler(const AnaheimFramework &fw, const ServeConfig &serve);

    ServeResult run(const std::vector<OpSequence> &traces) const;

  private:
    const AnaheimFramework &fw_;
    ServeConfig serve_;
};

} // namespace anaheim::serve

#endif // ANAHEIM_SERVE_SCHEDULER_H
