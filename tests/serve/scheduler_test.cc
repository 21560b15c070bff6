/**
 * @file
 * Serving-scheduler tests: the multi-tenant event loop must be a pure
 * function of (config, traces, seeds) — bitwise identical across
 * reruns and host thread counts — batching must change scheduling
 * only (never any per-request result), overlap must beat the serial
 * baseline, the dispatch order is pinned per config, and the
 * RunContext stepping API must reproduce AnaheimFramework::execute
 * exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "anaheim/framework.h"
#include "anaheim/runcontext.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/scheduler.h"
#include "support/row_budget.h"
#include "trace/builders.h"

namespace anaheim {
namespace {

/** GPU-heavy tenant trace. */
OpSequence
hmultTrace()
{
    OpSequence seq = buildHMult(TraceParams{});
    seq.name = "hmult";
    return seq;
}

/** PIM-heavy tenant trace: all-element-wise HADD/PMULT pairs. */
OpSequence
ewTrace(size_t pairs)
{
    const TraceParams params;
    OpSequence seq = buildHAdd(params);
    const OpSequence add = seq;
    const OpSequence mult = buildPMult(params);
    seq.append(mult);
    for (size_t r = 1; r < pairs; ++r) {
        seq.append(add);
        seq.append(mult);
    }
    seq.name = "ew";
    return seq;
}

std::vector<OpSequence>
mixedTraces()
{
    return {hmultTrace(), ewTrace(30)};
}

ServeConfig
servingConfig(double offeredRps)
{
    ServeConfig serve;
    serve.streams = 8;
    serve.requestsPerStream = 3;
    serve.offeredRps = offeredRps;
    serve.priorityClasses = 2;
    return serve;
}

void
foldDouble(std::vector<uint64_t> &out, double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    out.push_back(bits);
}

/** Bitwise digest of everything a serve run decides: request
 *  lifecycles, per-run totals, full timelines, aggregate stats. */
std::vector<uint64_t>
digest(const serve::ServeResult &result)
{
    std::vector<uint64_t> out;
    foldDouble(out, result.stats.makespanNs);
    foldDouble(out, result.stats.gpuBusyNs);
    foldDouble(out, result.stats.pimBusyNs);
    out.push_back(result.stats.admitted);
    out.push_back(result.stats.rejected);
    out.push_back(result.stats.completed);
    out.push_back(result.stats.rejectedQueueFull);
    out.push_back(result.stats.rejectedRateLimited);
    out.push_back(result.stats.shedDeadline);
    out.push_back(result.stats.deadlineMet);
    out.push_back(result.stats.preemptions);
    out.push_back(result.stats.preemptionResumes);
    foldDouble(out, result.stats.preemptionOverheadNs);
    out.push_back(result.stats.repriceEvents);
    out.push_back(result.stats.batches);
    out.push_back(result.stats.batchedOps);
    for (const double l : result.stats.latenciesNs)
        foldDouble(out, l);
    for (const serve::ServeStreamResult &stream : result.streams) {
        out.push_back(stream.priority);
        out.push_back(stream.pimRetries);
        out.push_back(stream.rollbacks);
        out.push_back(stream.gpuFallbacks);
        out.push_back(stream.migrations);
        out.push_back(stream.unrecovered);
        for (const serve::ServeRequest &req : stream.requests) {
            foldDouble(out, req.arrivalNs);
            foldDouble(out, req.startNs);
            foldDouble(out, req.endNs);
            out.push_back(req.rejected ? 1 : 0);
            out.push_back(static_cast<uint64_t>(req.cause));
            out.push_back(req.deadlineMet ? 1 : 0);
            foldDouble(out, req.result.totalNs);
            foldDouble(out, req.result.energyPj);
            for (const GanttEntry &entry : req.result.timeline) {
                foldDouble(out, entry.startNs);
                foldDouble(out, entry.endNs);
                foldDouble(out, entry.energyPj);
            }
        }
    }
    return out;
}

TEST(Serve, RerunIsBitwiseIdentical)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    const serve::ServeScheduler sched(fw, servingConfig(8000.0));
    EXPECT_EQ(digest(sched.run(traces)), digest(sched.run(traces)));
}

TEST(Serve, DeterministicAcrossThreadCounts)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    const serve::ServeScheduler sched(fw, servingConfig(8000.0));

    setParallelThreads(1);
    const auto one = digest(sched.run(traces));
    setParallelThreads(4);
    const auto four = digest(sched.run(traces));
    setParallelThreads(0); // restore the default pool
    EXPECT_EQ(one, four);
}

TEST(Serve, BatchingChangesSchedulingNotResults)
{
    // Faults + checksums on: the fault draws are the most fragile
    // per-request state, and they must be keyed by (request, op),
    // never by dispatch order.
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.ber = 1e-6;
    config.resilience.checksumEnabled = true;
    const AnaheimFramework fw(config);
    const auto traces = mixedTraces();

    ServeConfig on = servingConfig(8000.0);
    ServeConfig off = on;
    off.batching = false;
    const auto withBatch =
        serve::ServeScheduler(fw, on).run(traces);
    const auto without =
        serve::ServeScheduler(fw, off).run(traces);

    ASSERT_GT(withBatch.stats.batches, 0u);
    EXPECT_EQ(without.stats.batches, 0u);
    ASSERT_EQ(withBatch.streams.size(), without.streams.size());
    for (size_t s = 0; s < withBatch.streams.size(); ++s) {
        const auto &a = withBatch.streams[s].requests;
        const auto &b = without.streams[s].requests;
        ASSERT_EQ(a.size(), b.size());
        for (size_t k = 0; k < a.size(); ++k) {
            const RunResult &ra = a[k].result;
            const RunResult &rb = b[k].result;
            // Start/end times and transition charges may differ; the
            // computation itself — work, energy, traffic, faults —
            // must not.
            EXPECT_EQ(ra.energyPj, rb.energyPj);
            EXPECT_EQ(ra.gpuDramBytes, rb.gpuDramBytes);
            EXPECT_EQ(ra.pimInternalBytes, rb.pimInternalBytes);
            EXPECT_EQ(ra.resilience.faultyWords,
                      rb.resilience.faultyWords);
            EXPECT_EQ(ra.resilience.eccCorrected,
                      rb.resilience.eccCorrected);
            EXPECT_EQ(ra.resilience.eccUncorrectable,
                      rb.resilience.eccUncorrectable);
            EXPECT_EQ(ra.resilience.silentErrors,
                      rb.resilience.silentErrors);
            EXPECT_EQ(ra.resilience.pimRetries,
                      rb.resilience.pimRetries);
            EXPECT_EQ(ra.resilience.checksumMismatches,
                      rb.resilience.checksumMismatches);
            EXPECT_EQ(ra.resilience.unrecovered,
                      rb.resilience.unrecovered);
            ASSERT_EQ(ra.timeline.size(), rb.timeline.size());
            for (size_t e = 0; e < ra.timeline.size(); ++e) {
                EXPECT_EQ(ra.timeline[e].phase, rb.timeline[e].phase);
                EXPECT_EQ(ra.timeline[e].device,
                          rb.timeline[e].device);
                EXPECT_EQ(ra.timeline[e].cls, rb.timeline[e].cls);
                EXPECT_EQ(ra.timeline[e].energyPj,
                          rb.timeline[e].energyPj);
            }
        }
    }
}

TEST(Serve, OverlapBeatsSerialBaseline)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    const ServeConfig overlapped = servingConfig(12000.0);
    ServeConfig serial = overlapped;
    serial.overlap = false;
    serial.batching = false;

    const auto fast =
        serve::ServeScheduler(fw, overlapped).run(traces).stats;
    const auto slow =
        serve::ServeScheduler(fw, serial).run(traces).stats;
    ASSERT_EQ(fast.completed, slow.completed);
    // The GPU-heavy/PIM-heavy mix leaves plenty of cross-trace
    // parallelism; 1.3x is a conservative floor for this population
    // (the serving bench demonstrates ~1.9x at saturation).
    EXPECT_LT(fast.makespanNs * 1.3, slow.makespanNs);
}

TEST(Serve, CrossTraceGpuPimOverlapExists)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    const auto result =
        serve::ServeScheduler(fw, servingConfig(12000.0)).run(traces);

    // Some GPU span of one stream must run while another stream's PIM
    // span is in flight — the defining schedule shape of the overlap
    // scheduler (visible as parallel tracks in the Perfetto export).
    bool found = false;
    const auto &streams = result.streams;
    for (size_t i = 0; i < streams.size() && !found; ++i) {
        for (const serve::ServeRequest &ri : streams[i].requests) {
            for (const GanttEntry &a : ri.result.timeline) {
                if (a.device != "GPU")
                    continue;
                for (size_t j = 0; j < streams.size(); ++j) {
                    if (j == i)
                        continue;
                    for (const serve::ServeRequest &rj :
                         streams[j].requests) {
                        for (const GanttEntry &b : rj.result.timeline) {
                            if (b.device == "PIM" &&
                                a.startNs < b.endNs &&
                                b.startNs < a.endNs &&
                                a.endNs > a.startNs &&
                                b.endNs > b.startNs)
                                found = true;
                        }
                    }
                }
            }
            if (found)
                break;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Serve, AdmissionRejectsBeyondQueueLimit)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    ServeConfig serve = servingConfig(5e6); // everyone arrives at once
    serve.requestsPerStream = 8;
    serve.maxQueuedPerStream = 2;
    const auto result = serve::ServeScheduler(fw, serve).run(traces);

    const auto &stats = result.stats;
    EXPECT_GT(stats.rejected, 0u);
    EXPECT_EQ(stats.admitted + stats.rejected,
              static_cast<uint64_t>(serve.streams) *
                  serve.requestsPerStream);
    EXPECT_EQ(stats.completed, stats.admitted);
    // Every rejection here is a queue overflow, and the cause split
    // must say so exactly.
    EXPECT_EQ(stats.rejectedQueueFull, stats.rejected);
    EXPECT_EQ(stats.rejectedRateLimited, 0u);
    EXPECT_EQ(stats.shedDeadline, 0u);
    // Rejected requests carry no run result and the queue-full cause.
    for (const auto &stream : result.streams) {
        for (const auto &req : stream.requests) {
            if (req.rejected) {
                EXPECT_TRUE(req.result.timeline.empty());
                EXPECT_EQ(req.cause, serve::RejectCause::QueueFull);
            } else {
                EXPECT_EQ(req.cause, serve::RejectCause::None);
            }
        }
    }
}

/** Sums per-request reject causes and checks they partition the
 *  aggregate counters exactly — no double counting, nothing dropped. */
void
expectCausePartition(const serve::ServeResult &result,
                     const ServeConfig &serve)
{
    const serve::ServeStats &stats = result.stats;
    EXPECT_EQ(stats.rejected, stats.rejectedQueueFull +
                                  stats.rejectedRateLimited +
                                  stats.shedDeadline);
    EXPECT_EQ(stats.admitted + stats.rejected,
              static_cast<uint64_t>(serve.streams) *
                  serve.requestsPerStream);
    EXPECT_EQ(stats.completed, stats.admitted);
    uint64_t queueFull = 0;
    uint64_t rateLimited = 0;
    uint64_t shed = 0;
    for (const auto &stream : result.streams) {
        for (const auto &req : stream.requests) {
            EXPECT_EQ(req.rejected,
                      req.cause != serve::RejectCause::None);
            queueFull += req.cause == serve::RejectCause::QueueFull;
            rateLimited += req.cause == serve::RejectCause::RateLimited;
            shed += req.cause == serve::RejectCause::DeadlineShed;
        }
    }
    EXPECT_EQ(queueFull, stats.rejectedQueueFull);
    EXPECT_EQ(rateLimited, stats.rejectedRateLimited);
    EXPECT_EQ(shed, stats.shedDeadline);
}

TEST(Serve, PercentileHandlesEdgeCases)
{
    serve::ServeStats stats;
    // Empty sample: every percentile is 0, including the boundaries.
    EXPECT_EQ(stats.percentileNs(50.0), 0.0);
    EXPECT_EQ(stats.percentileNs(0.0), 0.0);
    EXPECT_EQ(stats.percentileNs(100.0), 0.0);

    stats.latenciesNs = {5.0};
    EXPECT_EQ(stats.percentileNs(0.0), 5.0);
    EXPECT_EQ(stats.percentileNs(50.0), 5.0);
    EXPECT_EQ(stats.percentileNs(100.0), 5.0);

    stats.latenciesNs = {5.0, 1.0, 3.0};
    EXPECT_EQ(stats.percentileNs(0.0), 1.0);   // minimum
    EXPECT_EQ(stats.percentileNs(100.0), 5.0); // maximum
    EXPECT_EQ(stats.percentileNs(34.0), 3.0);  // nearest rank 2 of 3
    EXPECT_EQ(stats.percentileNs(50.0), 3.0);
    EXPECT_EQ(stats.percentileNs(99.0), 5.0);
    // Out-of-range p clamps instead of indexing out of bounds.
    EXPECT_EQ(stats.percentileNs(-10.0), 1.0);
    EXPECT_EQ(stats.percentileNs(250.0), 5.0);
}

TEST(Serve, RateLimiterRejectsWithDedicatedCause)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    ServeConfig serve = servingConfig(50000.0); // well past the limit
    serve.requestsPerStream = 6;
    serve.rateLimitRps = 2000.0; // per stream; offered is ~6250/stream
    serve.rateLimitBurst = 1.0;
    const auto result = serve::ServeScheduler(fw, serve).run(traces);

    EXPECT_GT(result.stats.rejectedRateLimited, 0u);
    EXPECT_EQ(result.stats.rejectedQueueFull, 0u);
    EXPECT_EQ(result.stats.shedDeadline, 0u);
    expectCausePartition(result, serve);
}

TEST(Serve, DeadlineSheddingDropsGuaranteedMisses)
{
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    // Everyone arrives at once; the deadline covers a couple of
    // service times, so the back of each queue is a guaranteed miss
    // and must be shed instead of executed.
    const double serviceNs =
        std::max(fw.execute(traces[0]).totalNs,
                 fw.execute(traces[1]).totalNs);
    ServeConfig serve = servingConfig(5e6);
    serve.requestsPerStream = 8;
    // Two deadline classes exercise the per-class round-robin.
    serve.deadlineClassNs = {2.0 * serviceNs, 3.0 * serviceNs};
    const auto result = serve::ServeScheduler(fw, serve).run(traces);

    EXPECT_GT(result.stats.shedDeadline, 0u);
    EXPECT_GT(result.stats.deadlineMet, 0u);
    EXPECT_EQ(result.stats.rejectedRateLimited, 0u);
    expectCausePartition(result, serve);
    // Goodput only counts deadline-met completions.
    EXPECT_LE(result.stats.goodputRps(), result.stats.throughputRps());
    EXPECT_LE(result.stats.deadlineMet, result.stats.completed);
    for (const auto &stream : result.streams) {
        for (const auto &req : stream.requests) {
            if (req.cause == serve::RejectCause::DeadlineShed) {
                EXPECT_TRUE(req.result.timeline.empty());
            }
            if (req.deadlineMet) {
                EXPECT_FALSE(req.rejected);
                EXPECT_LE(req.endNs, req.deadlineNs);
            }
        }
    }
}

TEST(Serve, PreemptionLeavesRunResultsIdentical)
{
    // Preemption changes WHO waits, never WHAT any run computes: the
    // save/restore passes bill the device horizon and ServeStats, so a
    // preempted run's RunResult must match the no-preemption schedule
    // bit for bit (the "resumes bitwise-identically" guarantee).
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    const auto traces = mixedTraces();
    ServeConfig on = servingConfig(12000.0);
    on.preemption = true;
    // Batching off: fused followers skip transition charges, and the
    // two schedules batch differently — keep the comparison exact.
    on.batching = false;
    ServeConfig off = on;
    off.preemption = false;

    const auto withPreempt = serve::ServeScheduler(fw, on).run(traces);
    const auto without = serve::ServeScheduler(fw, off).run(traces);

    ASSERT_GT(withPreempt.stats.preemptions, 0u);
    // Every preempted run has costed work left, so it always comes
    // back and pays its restore.
    EXPECT_EQ(withPreempt.stats.preemptionResumes,
              withPreempt.stats.preemptions);
    EXPECT_GT(withPreempt.stats.preemptionOverheadNs, 0.0);
    EXPECT_EQ(without.stats.preemptions, 0u);
    EXPECT_EQ(without.stats.preemptionOverheadNs, 0.0);
    ASSERT_EQ(withPreempt.streams.size(), without.streams.size());
    for (size_t s = 0; s < withPreempt.streams.size(); ++s) {
        const auto &a = withPreempt.streams[s].requests;
        const auto &b = without.streams[s].requests;
        ASSERT_EQ(a.size(), b.size());
        for (size_t k = 0; k < a.size(); ++k) {
            const RunResult &ra = a[k].result;
            const RunResult &rb = b[k].result;
            EXPECT_EQ(ra.energyPj, rb.energyPj);
            EXPECT_EQ(ra.gpuDramBytes, rb.gpuDramBytes);
            EXPECT_EQ(ra.pimInternalBytes, rb.pimInternalBytes);
            ASSERT_EQ(ra.timeline.size(), rb.timeline.size());
            for (size_t e = 0; e < ra.timeline.size(); ++e) {
                EXPECT_EQ(ra.timeline[e].phase, rb.timeline[e].phase);
                EXPECT_EQ(ra.timeline[e].device,
                          rb.timeline[e].device);
                // Durations are differences of absolute timestamps,
                // and the two schedules embed the run at different
                // offsets — allow the resulting last-bit float noise,
                // nothing more.
                EXPECT_NEAR(ra.timeline[e].endNs -
                                ra.timeline[e].startNs,
                            rb.timeline[e].endNs -
                                rb.timeline[e].startNs,
                            1e-6);
                EXPECT_EQ(ra.timeline[e].energyPj,
                          rb.timeline[e].energyPj);
            }
        }
    }
}

/** The full SLO + resilience stack in one config: faults, recovery,
 *  health quarantine, deadlines, rate limits and preemption. */
ServeConfig
resilientServeConfig()
{
    ServeConfig serve = servingConfig(10000.0);
    serve.requestsPerStream = 4;
    serve.deadlineClassNs = {1e9}; // generous: estimator on, shedding rare
    serve.rateLimitRps = 5000.0;
    serve.rateLimitBurst = 2.0;
    serve.preemption = true;
    return serve;
}

AnaheimConfig
faultyDeviceConfig()
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    ResilienceConfig &rc = config.resilience;
    rc.ber = 1e-6;
    rc.checksumEnabled = true;
    rc.checkpoint.enabled = true;
    rc.checkpoint.intervalSegments = 8;
    rc.checkpoint.maxRollbacks = 32;
    rc.health.enabled = true;
    rc.health.permanentThreshold = 2;
    rc.permanentBanks.push_back({2, 17});
    return config;
}

TEST(Serve, ServeUnderFaultsIsDeterministic)
{
    // Satellite of the §16 determinism story: with every new policy ON
    // and a faulty device, a serve run is still a pure function of
    // (config, traces, seeds). The serve_determinism_threads4 ctest
    // entry reruns this under ANAHEIM_THREADS=4.
    const AnaheimFramework fw(faultyDeviceConfig());
    const auto traces = mixedTraces();
    const serve::ServeScheduler sched(fw, resilientServeConfig());
    EXPECT_EQ(digest(sched.run(traces)), digest(sched.run(traces)));
}

TEST(Serve, TelemetrySamplingPreservesBitwiseDeterminism)
{
    // §17: time-series sampling observes the schedule, it must never
    // steer it. A run with a telemetry tick must be bitwise identical
    // to the same run with telemetry off, and a sampled rerun must be
    // bitwise identical to itself (incl. under ANAHEIM_THREADS=4 via
    // the serve_determinism_threads4 ctest entry). Alert counters are
    // simulated-time artifacts, so they replay exactly too.
    const AnaheimFramework fw(faultyDeviceConfig());
    const auto traces = mixedTraces();

    ServeConfig sampled = resilientServeConfig();
    sampled.telemetry.tickNs = 3.0e6;
    sampled.telemetry.sloTarget = 0.9;
    sampled.telemetry.fastWindowTicks = 2;
    sampled.telemetry.slowWindowTicks = 6;
    ServeConfig unsampled = sampled;
    unsampled.telemetry.tickNs = 0.0; // telemetry disabled

    const serve::ServeScheduler sampledSched(fw, sampled);
    const auto first = sampledSched.run(traces);
    const auto second = sampledSched.run(traces);
    EXPECT_EQ(digest(first), digest(second));
    EXPECT_EQ(first.stats.alertsFired, second.stats.alertsFired);
    EXPECT_EQ(first.stats.alertsResolved, second.stats.alertsResolved);
    EXPECT_EQ(first.stats.alertTicksFiring,
              second.stats.alertTicksFiring);

    const auto off = serve::ServeScheduler(fw, unsampled).run(traces);
    EXPECT_EQ(digest(first), digest(off));
    EXPECT_EQ(off.stats.alertsFired, 0u);
    EXPECT_EQ(off.stats.alertTicksFiring, 0u);
}

TEST(Serve, DegradationRepricesWithoutStallingTenants)
{
    // One permanently dead bank trips quarantine mid-serve: the
    // scheduler must re-price queued work on the degraded geometry
    // (repriceEvents > 0), surface per-tenant fault bills, and keep
    // every tenant serving — one stream's fault storm cannot starve
    // the rest.
    const AnaheimFramework fw(faultyDeviceConfig());
    const auto traces = mixedTraces();
    const ServeConfig serve = resilientServeConfig();
    const auto result = serve::ServeScheduler(fw, serve).run(traces);

    EXPECT_GT(result.stats.repriceEvents, 0u);
    expectCausePartition(result, serve);
    uint64_t totalRetries = 0;
    for (const auto &stream : result.streams) {
        uint64_t done = 0;
        for (const auto &req : stream.requests)
            done += !req.rejected;
        EXPECT_GE(done, 1u); // every tenant kept serving
        totalRetries += stream.pimRetries + stream.rollbacks +
                        stream.gpuFallbacks + stream.migrations;
    }
    // The fault storm must actually be visible in the per-tenant bill.
    EXPECT_GT(totalRetries, 0u);
}

TEST(Serve, OneTenantsOversizedTraceLeavesTheOthersOnPim)
{
    // Tenant A's trace ends in a HADD whose operands fill 90% of each
    // bank's rows (support/row_budget.h); tenant B's trace is the same
    // without it. Bank (2,17) is dead. A's first request quarantines
    // it, and A's degraded plan no longer fits, so that run takes its
    // own PIM offline; at 2559 of 2560 banks the device is far above
    // its capacity floor. Each deadline sits midway between the
    // tenant's PIM estimate and its GPU-only one, so B meets it only
    // while the scheduler keeps B on the degraded PIM. A's later
    // requests, priced GPU-only, are shed.
    AnaheimConfig config = faultyDeviceConfig();
    config.resilience.ber = 0.0; // the dead bank is the only fault

    OpSequence chain = hmultTrace();
    chain.append(hmultTrace());
    OpSequence oversized = chain;
    oversized.append(test_support::nearRowBudgetHAdd());
    const std::vector<OpSequence> traces = {oversized, chain};

    const AnaheimConfig clean = AnaheimConfig::a100NearBank();
    AnaheimConfig gpuOnly = clean;
    gpuOnly.pimEnabled = false;
    AnaheimConfig degraded = clean;
    degraded.pim = clean.pim.degraded(
        ResourceMap{5, 512, 8, {{FaultSiteId::Kind::Bank, 2, 17}}});
    const auto priceOn = [](const AnaheimConfig &device,
                            const OpSequence &trace) {
        return AnaheimFramework(device).execute(trace).totalNs;
    };
    ServeConfig serve;
    serve.streams = 2;
    serve.requestsPerStream = 12;
    serve.offeredRps = 5.0;
    serve.deadlineClassNs = {
        (priceOn(clean, oversized) + priceOn(gpuOnly, oversized)) / 2.0,
        (priceOn(degraded, chain) + priceOn(gpuOnly, chain)) / 2.0};
    ASSERT_LT(priceOn(degraded, chain), serve.deadlineClassNs[1]);

    const AnaheimFramework fw(config);
    const auto result = serve::ServeScheduler(fw, serve).run(traces);
    const serve::ServeRequest &first = result.streams[0].requests[0];
    ASSERT_FALSE(first.rejected);
    EXPECT_EQ(first.result.pimOffline, PimOffline::PlanNoLongerFits);
    EXPECT_GT(first.result.pimCapacityFraction,
              config.resilience.health.minCapacityFraction);
    for (const serve::ServeRequest &req : result.streams[1].requests)
        EXPECT_FALSE(req.rejected) << "tenant B request " << req.index;
    for (size_t k = 1; k < serve.requestsPerStream; ++k)
        EXPECT_EQ(result.streams[0].requests[k].cause,
                  serve::RejectCause::DeadlineShed)
            << "tenant A request " << k;
}

/** Word-wise FNV-1a step. */
uint64_t
fnv(uint64_t hash, uint64_t word)
{
    return (hash ^ word) * 0x100000001b3ull;
}

/** Folds the completed requests' (stream, index) pairs into `hash`,
 *  ordered by `timeOf` with (stream, index) breaking ties. */
template <class TimeOf>
uint64_t
foldOrder(uint64_t hash, const serve::ServeResult &result, TimeOf timeOf)
{
    std::vector<const serve::ServeRequest *> done;
    for (const serve::ServeStreamResult &stream : result.streams) {
        for (const serve::ServeRequest &req : stream.requests) {
            if (!req.rejected)
                done.push_back(&req);
        }
    }
    std::sort(done.begin(), done.end(),
              [&](const serve::ServeRequest *a,
                  const serve::ServeRequest *b) {
                  return std::tuple(timeOf(*a), a->stream, a->index) <
                         std::tuple(timeOf(*b), b->stream, b->index);
              });
    for (const serve::ServeRequest *req : done)
        hash = fnv(fnv(hash, req->stream), req->index);
    return hash;
}

/** Integer-only digest of the dispatch order a serve run chose: the
 *  ServeStats counts, every request's cause, and who started and who
 *  completed in which order. No raw double bits go in, so the digest
 *  does not depend on the host libm's last bit (arrivals come from
 *  std::log, fault rates from exp/pow). */
uint64_t
orderDigest(const serve::ServeResult &result)
{
    const serve::ServeStats &st = result.stats;
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const uint64_t count :
         {st.admitted, st.rejected, st.completed, st.rejectedQueueFull,
          st.rejectedRateLimited, st.shedDeadline, st.deadlineMet,
          st.preemptions, st.preemptionResumes, st.repriceEvents,
          st.batches, st.batchedOps})
        hash = fnv(hash, count);
    for (const serve::ServeStreamResult &stream : result.streams) {
        for (const serve::ServeRequest &req : stream.requests)
            hash = fnv(hash, static_cast<uint64_t>(req.cause));
    }
    hash = foldOrder(hash, result, [](const serve::ServeRequest &r) {
        return r.startNs;
    });
    return foldOrder(hash, result, [](const serve::ServeRequest &r) {
        return r.endNs;
    });
}

/** The degraded device of the serve-chaos scenario: rare transient
 *  upsets, the full detect-and-recover ladder, and one dead bank that
 *  health monitoring quarantines mid-serve. */
AnaheimConfig
chaosDeviceConfig()
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    ResilienceConfig &rc = config.resilience;
    rc.ber = 1e-7;
    rc.checksumEnabled = true;
    rc.checkpoint.enabled = true;
    rc.checkpoint.intervalSegments = 4;
    rc.checkpoint.maxRollbacks = 32;
    rc.health.enabled = true;
    rc.health.permanentThreshold = 2;
    rc.permanentBanks.push_back({2, 17});
    return config;
}

/** Deadlines, token buckets and a 2-deep queue, sized against the
 *  clean device's mean service time. */
void
applySloStack(ServeConfig &serve, double meanServiceNs)
{
    serve.deadlineClassNs = {3.0 * meanServiceNs, 6.0 * meanServiceNs};
    serve.rateLimitRps =
        1.5e9 / meanServiceNs / static_cast<double>(serve.streams);
    serve.rateLimitBurst = 2.0;
    serve.maxQueuedPerStream = 2;
}

TEST(Serve, DispatchOrderMatchesPinnedDigests)
{
    // The digests were taken from a scheduler that scanned every
    // stream for each decision, so any faster way of finding the next
    // candidate, its batch followers, the next arrival or the slots to
    // refill must keep that dispatch order exactly. Matrix bits:
    // preemption, overlap, batching, 3 priority classes, SLO stack,
    // chaos device.
    static constexpr uint64_t kMatrix[64] = {
        0x5ec94b7cf0f588d2ull, 0x5ec94b7cf0f588d2ull, 0x884f6fb98da69d22ull,
        0x884f6fb98da69d22ull, 0x826902918f732373ull, 0x826902918f732373ull,
        0xd14dff08db0aefcdull, 0xd14dff08db0aefcdull, 0x89f34965b969342ull,
        0x4bffb9776aa3fcd0ull, 0x5f7bcb369ac94fdaull, 0x7f2894ef49032af0ull,
        0x1262d0639180ed37ull, 0x96cba4b5de2fcab8ull, 0x4b858542039458c3ull,
        0xc438c34f0665c6beull, 0xa7ee5b45def12f5dull, 0xa7ee5b45def12f5dull,
        0x99bb1f33281cb0f3ull, 0x99bb1f33281cb0f3ull, 0x806046746bd31752ull,
        0x806046746bd31752ull, 0xf98719add4a08340ull, 0xf98719add4a08340ull,
        0x22a78cf71ee359b2ull, 0x348ddb923b3349faull, 0xcb16ff9be945de24ull,
        0x959c0e16d3488fdcull, 0x8359244579614b93ull, 0x597bc54336633357ull,
        0xd9f95af47e4569fcull, 0x48ac6e0a415e0e5full, 0x20497db16b430c53ull,
        0x20497db16b430c53ull, 0x10f7c52727ce7517ull, 0x10f7c52727ce7517ull,
        0x2909314778e21f86ull, 0x2909314778e21f86ull, 0x65cff72de02b68d7ull,
        0x65cff72de02b68d7ull, 0x62e6b85a8e94074bull, 0x62e6b85a8e94074bull,
        0x4939181158cb8a33ull, 0xee32646f0b8f6d23ull, 0x80ef07aca7aa70b4ull,
        0x80ef07aca7aa70b4ull, 0xdc1226ae519f167eull, 0xd8e16f96689d2fdeull,
        0xc0090dc3b9c827b7ull, 0xc0090dc3b9c827b7ull, 0xb33d301d3ba0abb9ull,
        0xb33d301d3ba0abb9ull, 0xcf09c04e6656532ull, 0xcf09c04e6656532ull,
        0x23ddc6c44c7c0072ull, 0x23ddc6c44c7c0072ull, 0xcece9f92c2e25e29ull,
        0xeb1f1f11190ff7bbull, 0xc11992d9b6c8b488ull, 0xbbc413d277fdbe10ull,
        0xe9f556eadf806a16ull, 0xe9f556eadf806a16ull, 0x20a8ca0778409ac4ull,
        0xcbfba3843f38e285ull};
    const AnaheimFramework clean(AnaheimConfig::a100NearBank());
    const AnaheimFramework chaos(chaosDeviceConfig());
    const std::vector<OpSequence> traces = {hmultTrace(), ewTrace(4)};
    const double meanServiceNs = (clean.execute(traces[0]).totalNs +
                                  clean.execute(traces[1]).totalNs) /
                                 2.0;
    for (size_t cell = 0; cell < 64; ++cell) {
        ServeConfig serve;
        serve.streams = 13;
        serve.requestsPerStream = 3;
        serve.offeredRps = 2e9 / meanServiceNs;
        serve.preemption = (cell & 1) != 0;
        serve.overlap = (cell & 2) != 0;
        serve.batching = (cell & 4) != 0;
        serve.priorityClasses = (cell & 8) != 0 ? 3 : 1;
        if ((cell & 16) != 0)
            applySloStack(serve, meanServiceNs);
        const AnaheimFramework &fw = (cell & 32) != 0 ? chaos : clean;
        const uint64_t got =
            orderDigest(serve::ServeScheduler(fw, serve).run(traces));
        EXPECT_EQ(got, kMatrix[cell])
            << "cell " << cell << " digest 0x" << std::hex << got;
    }

    // Many streams on one HMult trace, so PIM steps of the same shape
    // pile up: with preemption, a batch leader's start can lie beyond
    // the PIM horizon, and followers then also come from streams that
    // become ready between the horizon and that start.
    static constexpr uint64_t kSingleTrace[4] = {
        0x2fe2e95051f03cc3ull, 0x977cdc156b5a678ull,
        0x2883663688f5029dull, 0x1e4f3db62f82e4ddull};
    const std::vector<OpSequence> hmult = {hmultTrace()};
    size_t cell = 0;
    for (const size_t streams : {16, 64}) {
        for (const double rps : {5000.0, 20000.0}) {
            ServeConfig serve;
            serve.streams = streams;
            serve.requestsPerStream = 3;
            serve.offeredRps = rps;
            serve.priorityClasses = 2;
            serve.preemption = true;
            const uint64_t got =
                orderDigest(serve::ServeScheduler(clean, serve).run(hmult));
            EXPECT_EQ(got, kSingleTrace[cell])
                << streams << " streams at " << rps << " rps: digest 0x"
                << std::hex << got;
            ++cell;
        }
    }
}

/** The chaos device with quarantine delayed to 8 detections, so the
 *  queues have built up by the time re-pricing sheds from them. */
AnaheimConfig
lateQuarantineConfig()
{
    AnaheimConfig config = chaosDeviceConfig();
    config.resilience.health.permanentThreshold = 8;
    return config;
}

/** 8 sampled tenants in 2 preempting classes under the SLO stack,
 *  offered 3x the clean device's capacity. */
ServeConfig
sampledChaosServe(double meanServiceNs)
{
    ServeConfig serve;
    serve.streams = 8;
    serve.requestsPerStream = 6;
    serve.offeredRps = 3e9 / meanServiceNs;
    serve.priorityClasses = 2;
    serve.preemption = true;
    applySloStack(serve, meanServiceNs);
    serve.telemetry.tickNs = 0.25 * meanServiceNs;
    return serve;
}

TEST(Serve, QueueDepthEqualsTenantQueues)
{
    // The aggregate queue_depth gauge must equal the sum of the
    // per-tenant gauges (every tenant has one at <= 8 streams) in every
    // window. Chaos + SLO runs every way a request leaves a queue:
    // activation, a shed at activation, and the re-pricing shed after
    // the quarantine — which a threshold of 8 detections delays until
    // the queues have built up.
    const AnaheimFramework fw(lateQuarantineConfig());
    const std::vector<OpSequence> traces = {hmultTrace(), ewTrace(4)};
    const AnaheimFramework clean(AnaheimConfig::a100NearBank());
    const double meanServiceNs = (clean.execute(traces[0]).totalNs +
                                  clean.execute(traces[1]).totalNs) /
                                 2.0;
    const ServeConfig serve = sampledChaosServe(meanServiceNs);

    obs::TimeSeriesRegistry &registry = obs::TimeSeriesRegistry::global();
    // The run takes the next epoch for its series namespace.
    const std::string prefix =
        "serve.run" + std::to_string(registry.beginEpoch() + 1) + ".ts.";
    const auto result = serve::ServeScheduler(fw, serve).run(traces);
    ASSERT_GT(result.stats.shedDeadline, 0u);
    ASSERT_GT(result.stats.repriceEvents, 0u);

    const double tick = serve.telemetry.tickNs;
    const auto total =
        registry.series(prefix + "queue_depth", tick).snapshot();
    ASSERT_FALSE(total.points.empty());
    std::vector<obs::SeriesSnapshot> tenants;
    for (size_t s = 0; s < serve.streams; ++s) {
        tenants.push_back(registry
                              .series(prefix + "tenant" +
                                          std::to_string(s) +
                                          ".queue_depth",
                                      tick)
                              .snapshot());
        ASSERT_EQ(tenants.back().points.size(), total.points.size());
    }
    double peak = 0.0;
    for (size_t w = 0; w < total.points.size(); ++w) {
        double sum = 0.0;
        for (const obs::SeriesSnapshot &tenant : tenants)
            sum += tenant.points[w].sum;
        EXPECT_EQ(total.points[w].sum, sum) << "window " << w;
        peak = std::max(peak, sum);
    }
    EXPECT_GT(peak, 0.0); // queues actually built up
}

/** Folds `text` byte by byte, then its length, into `hash`. */
uint64_t
fnvText(uint64_t hash, const std::string &text)
{
    for (const char c : text)
        hash = fnv(hash, static_cast<unsigned char>(c));
    return fnv(hash, text.size());
}

/** `value` at 10 significant digits. */
std::string
tenDigits(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    return buf;
}

/** FNV digest of what a traced, sampled serve run leaves in the
 *  observability layer: every window of its serve.run*.ts.* series,
 *  the alert counters, every simulated span in record order, and the
 *  run.* and serve.* metrics. Doubles go in as 10-digit text, so the
 *  digest does not depend on the host libm's last bit. */
uint64_t
telemetryDigest(const serve::ServeResult &result)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const obs::SeriesSnapshot &series :
         obs::TimeSeriesRegistry::global().snapshotAll()) {
        // "serve.run<epoch>.ts.<name>": the epoch counts earlier runs
        // in the process, so only <name> goes in.
        const size_t ts = series.name.find(".ts.");
        if (series.name.rfind("serve.run", 0) != 0 ||
            ts == std::string::npos)
            continue;
        hash = fnvText(hash, series.name.substr(ts + 4));
        hash = fnv(fnv(hash, series.droppedLate), series.evictedWindows);
        for (const obs::SeriesPoint &p : series.points) {
            hash = fnv(hash, p.count);
            for (const double v :
                 {p.startNs, p.sum, p.min, p.max, p.p50, p.p99})
                hash = fnvText(hash, tenDigits(v));
        }
    }
    const serve::ServeStats &st = result.stats;
    for (const uint64_t count :
         {st.alertsFired, st.alertsResolved, st.alertTicksFiring})
        hash = fnv(hash, count);
    for (const obs::SimSpan &span :
         obs::TraceCollector::global().simSpans()) {
        hash = fnv(fnvText(fnvText(hash, span.name), span.lane), span.run);
        hash = fnvText(fnvText(hash, tenDigits(span.startUs)),
                       tenDigits(span.durUs));
    }
    for (const obs::MetricsSnapshot::Entry &entry :
         obs::MetricsRegistry::global().snapshot().entries) {
        // resetAll() keeps what earlier tests registered, at zero, so
        // zero entries stay out.
        if ((entry.name.rfind("run.", 0) == 0 ||
             entry.name.rfind("serve.", 0) == 0) &&
            entry.value != 0.0)
            hash = fnvText(fnvText(hash, entry.name),
                           tenDigits(entry.value));
    }
    return hash;
}

TEST(Serve, TelemetryMatchesPinnedDigests)
{
    // No golden gate sees the serve time series, spans or per-run
    // metrics: the smokes' golden files hold --json only. These digests
    // pin all three for a traced, sampled run of the chaos setup above
    // and of a clean device with two preempting classes under deadlines
    // tight enough to fire the burn-rate alert.
    static constexpr uint64_t kDigests[2] = {0x2f2e94b97698511dull,
                                               0xeda41bf7904bba20ull};
    const AnaheimFramework chaos(lateQuarantineConfig());
    const AnaheimFramework clean(AnaheimConfig::a100NearBank());
    const std::vector<OpSequence> traces = {hmultTrace(), ewTrace(4)};
    const double meanServiceNs = (clean.execute(traces[0]).totalNs +
                                  clean.execute(traces[1]).totalNs) /
                                 2.0;
    ServeConfig preempting = servingConfig(12000.0);
    preempting.preemption = true;
    preempting.deadlineClassNs = {2.0 * meanServiceNs};
    preempting.telemetry.tickNs = 0.5 * meanServiceNs;
    preempting.telemetry.sloTarget = 0.9;
    preempting.telemetry.fastWindowTicks = 2;
    preempting.telemetry.slowWindowTicks = 6;
    const std::pair<const AnaheimFramework *, ServeConfig> cells[2] = {
        {&chaos, sampledChaosServe(meanServiceNs)}, {&clean, preempting}};

    const bool tracing = obs::tracingEnabled();
    obs::setTracingEnabled(true);
    for (size_t cell = 0; cell < 2; ++cell) {
        obs::TraceCollector::global().clear();
        obs::MetricsRegistry::global().resetAll();
        obs::TimeSeriesRegistry::global().clear();
        const auto &[fw, serve] = cells[cell];
        const auto result = serve::ServeScheduler(*fw, serve).run(traces);
        EXPECT_GT(result.stats.preemptions, 0u) << "cell " << cell;
        EXPECT_GT(result.stats.alertsFired, 0u) << "cell " << cell;
        const uint64_t got = telemetryDigest(result);
        EXPECT_EQ(got, kDigests[cell])
            << "cell " << cell << " digest 0x" << std::hex << got;
    }
    obs::setTracingEnabled(tracing);
}

TEST(ServeDeath, RejectsMoreRequestsThanFaultSaltsHold)
{
    // Request k of stream s salts its fault stream with
    // s * kMaxRequestsPerStream + k: one request more per stream and
    // (s, kMaxRequestsPerStream) would replay the faults of (s + 1, 0).
    const AnaheimFramework fw(AnaheimConfig::a100NearBank());
    ServeConfig serve;
    serve.requestsPerStream = serve::kMaxRequestsPerStream;
    const serve::ServeScheduler atBound(fw, serve);
    serve.requestsPerStream = serve::kMaxRequestsPerStream + 1;
    EXPECT_DEATH(serve::ServeScheduler(fw, serve), "requestsPerStream");
}

TEST(Serve, RunContextMatchesExecute)
{
    // The slimmed execute() IS the RunContext loop; pin the
    // equivalence (including fault/recovery state) against drift.
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.resilience.ber = 1e-6;
    config.resilience.checksumEnabled = true;
    config.resilience.checkpoint.enabled = true;
    config.resilience.checkpoint.intervalSegments = 8;
    const AnaheimFramework fw(config);
    OpSequence seq = hmultTrace();
    seq.append(hmultTrace());

    const RunResult viaExecute = fw.execute(seq);
    RunContext ctx(fw, seq);
    while (!ctx.done())
        ctx.step();
    const RunResult viaContext = ctx.finish();

    EXPECT_EQ(viaExecute.totalNs, viaContext.totalNs);
    EXPECT_EQ(viaExecute.energyPj, viaContext.energyPj);
    EXPECT_EQ(viaExecute.gpuDramBytes, viaContext.gpuDramBytes);
    EXPECT_EQ(viaExecute.pimInternalBytes,
              viaContext.pimInternalBytes);
    EXPECT_EQ(viaExecute.resilience.faultyWords,
              viaContext.resilience.faultyWords);
    EXPECT_EQ(viaExecute.resilience.rollbacks,
              viaContext.resilience.rollbacks);
    EXPECT_EQ(viaExecute.resilience.checksumChecks,
              viaContext.resilience.checksumChecks);
    ASSERT_EQ(viaExecute.timeline.size(), viaContext.timeline.size());
    for (size_t e = 0; e < viaExecute.timeline.size(); ++e) {
        EXPECT_EQ(viaExecute.timeline[e].startNs,
                  viaContext.timeline[e].startNs);
        EXPECT_EQ(viaExecute.timeline[e].endNs,
                  viaContext.timeline[e].endNs);
        EXPECT_EQ(viaExecute.timeline[e].phase,
                  viaContext.timeline[e].phase);
        EXPECT_EQ(viaExecute.timeline[e].device,
                  viaContext.timeline[e].device);
    }
}

} // namespace
} // namespace anaheim
