/**
 * @file
 * The serving layer's knobs (src/serve, DESIGN.md §15–17): how many
 * client streams the scheduler admits, how their requests arrive, and
 * the batching / overlap / admission / SLO / telemetry policies.
 */

#ifndef ANAHEIM_SERVE_CONFIG_H
#define ANAHEIM_SERVE_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/timeseries.h"

namespace anaheim {

/** Streaming time-series telemetry for a serving run (DESIGN.md §17):
 *  the scheduler samples per-device and per-tenant series on a fixed
 *  simulated-time tick and feeds a fast/slow-window SLO burn-rate
 *  evaluator, configured by the inherited fields, whose alert episodes
 *  land on the trace's `Alert` lane. */
struct ServeTelemetryConfig : obs::BurnRateConfig {
    /** Sampling tick, ns of simulated time; 0 disables telemetry
     *  entirely (the scheduler never touches the series registry). */
    double tickNs = 0.0;
};

/** Multi-tenant serving knobs (src/serve, DESIGN.md §15/§16): how many
 *  client streams the scheduler admits, how requests arrive, and the
 *  batching / overlap / admission / SLO policies. */
struct ServeConfig {
    /** Concurrent client streams (tenants). */
    size_t streams = 8;
    /** Aggregate offered load across all streams, requests/second of
     *  simulated time (split evenly per stream); requests arrive
     *  open-loop, as Poisson processes (serve/arrival.h). */
    double offeredRps = 100.0;
    /** Requests generated per stream before the arrival process
     *  stops; at most serve::kMaxRequestsPerStream. */
    size_t requestsPerStream = 4;
    /** Seed for the deterministic Poisson arrival draws. */
    uint64_t arrivalSeed = 0x5eedca11u;
    /** Streams cycle through priority classes 0..priorityClasses-1
     *  (0 = highest); dispatch breaks start-time ties by class. */
    size_t priorityClasses = 1;
    /** Admission control: an arrival finding this many requests
     *  already waiting on its stream is rejected. */
    size_t maxQueuedPerStream = 64;
    /** Batch compatible element-wise PIM dispatches across streams
     *  (same opcode/degree/limbs/fan-in -> one fused kernel of up to 8
     *  ciphertexts, the followers skip the GPU<->PIM transition). */
    bool batching = true;
    /** Clock GPU and PIM as independent resources so independent
     *  traces overlap; off = the serial back-to-back baseline. */
    bool overlap = true;

    // --- SLO / resilience policies (DESIGN.md §16) ---
    /** Relative completion deadlines (ns of simulated time after
     *  arrival): stream s uses deadlineClassNs[s % size()], mirroring
     *  the priority-class round-robin; one entry gives every stream the
     *  same deadline. Empty (or an entry of 0) leaves streams
     *  deadline-free. A queued request whose earliest-possible
     *  completion (dispatch time + fault-free service estimate)
     *  already misses its deadline is shed at dispatch instead of
     *  wasting device time on a guaranteed SLO violation. */
    std::vector<double> deadlineClassNs = {};
    /** Token-bucket per-tenant rate limiter: sustained request rate
     *  (requests/second of simulated time) each stream may submit;
     *  0 disables. Arrivals finding the bucket empty are rejected
     *  before touching the queue. */
    double rateLimitRps = 0.0;
    /** Token-bucket burst capacity (maximum saved-up tokens). */
    double rateLimitBurst = 4.0;
    /** Priority preemption: ready work of a strictly higher priority
     *  class interrupts a started lower-priority run at its next step
     *  boundary. The victim's state is checkpoint-coordinated (its
     *  live footprint is snapshotted out and restored at resume,
     *  priced on the device like a §10 checkpoint), so the preempted
     *  run resumes bitwise-identically; candidate order becomes
     *  (priority, dispatch time) instead of (dispatch time,
     *  priority). */
    bool preemption = false;

    /** Time-series telemetry + burn-rate alerting (DESIGN.md §17). */
    ServeTelemetryConfig telemetry;
};

namespace serve {

/** Requests one stream may carry. Request k of stream s draws its
 *  transient faults from the salt s * kMaxRequestsPerStream + k, so
 *  past this bound two requests would share one fault stream. */
inline constexpr size_t kMaxRequestsPerStream = size_t{1} << 20;

} // namespace serve

} // namespace anaheim

#endif // ANAHEIM_SERVE_CONFIG_H
