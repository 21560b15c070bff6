#include "telemetry.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace anaheim::serve {

namespace {

/** Series name suffixes, indexed by ServeTelemetry's Series enum. */
constexpr const char *kSeriesNames[] = {
    "latency_ns",         "deadline_met",        "goodput",
    "reject.queue_full",  "reject.rate_limited", "reject.shed",
    "preempt.save_ns",    "reprice",             "queue_depth",
    "gpu_busy_frac",      "pim_busy_frac",       "slo_fast_burn",
    "slo_slow_burn"};

/** serve.* counters and gauges of one run. */
void
publishServeMetrics(const ServeStats &stats)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.counter("serve.requests_admitted").add(stats.admitted);
    reg.counter("serve.requests_rejected").add(stats.rejected);
    reg.counter("serve.requests_completed").add(stats.completed);
    reg.counter("serve.rejected_queue_full")
        .add(stats.rejectedQueueFull);
    reg.counter("serve.rejected_rate_limited")
        .add(stats.rejectedRateLimited);
    reg.counter("serve.shed_deadline").add(stats.shedDeadline);
    reg.counter("serve.deadline_met").add(stats.deadlineMet);
    reg.counter("serve.preemptions").add(stats.preemptions);
    reg.counter("serve.preemption_resumes")
        .add(stats.preemptionResumes);
    reg.counter("serve.reprice_events").add(stats.repriceEvents);
    reg.counter("serve.alert.fired").add(stats.alertsFired);
    reg.counter("serve.alert.resolved").add(stats.alertsResolved);
    reg.counter("serve.alert.ticks_firing").add(stats.alertTicksFiring);
    reg.counter("serve.batches").add(stats.batches);
    reg.counter("serve.batched_ops").add(stats.batchedOps);
    reg.gauge("serve.makespan_ns").set(stats.makespanNs);
    reg.gauge("serve.gpu_util").set(stats.gpuUtil());
    reg.gauge("serve.pim_util").set(stats.pimUtil());
    reg.gauge("serve.throughput_rps").set(stats.throughputRps());
    reg.gauge("serve.goodput_rps").set(stats.goodputRps());
    reg.gauge("serve.preemption_overhead_ns")
        .set(stats.preemptionOverheadNs);
    reg.gauge("serve.latency_p50_ns").set(stats.percentileNs(50.0));
    reg.gauge("serve.latency_p99_ns").set(stats.percentileNs(99.0));
}

} // namespace

ServeTelemetry::ServeTelemetry(const ServeConfig &serve,
                               const std::vector<ServeStreamResult> &streams)
    : tickNs_(serve.telemetry.tickNs), tracing_(obs::tracingEnabled()),
      sampling_(tickNs_ > 0.0),
      runIds_(streams.size(), 0),
      tenantDepth_(std::min(streams.size(), kMaxTenantSeries), 0)
{
    static_assert(std::size(kSeriesNames) == kSeriesCount);
    for (size_t s = 0; tracing_ && s < streams.size(); ++s)
        runIds_[s] =
            obs::TraceCollector::global().beginRun(streams[s].name);
    if (!sampling_)
        return;
    // Per-run namespace: successive runs in one process (a bench
    // sweep) each get their own serve.run<epoch>.ts.* series.
    obs::TimeSeriesRegistry &registry = obs::TimeSeriesRegistry::global();
    const std::string prefix =
        "serve.run" + std::to_string(registry.beginEpoch()) + ".ts.";
    for (size_t i = 0; i < kSeriesCount; ++i)
        series_[i] = &registry.series(prefix + kSeriesNames[i], tickNs_);
    for (size_t s = 0; s < tenantDepth_.size(); ++s) {
        tenantSeries_.push_back(&registry.series(
            prefix + "tenant" + std::to_string(s) + ".queue_depth",
            tickNs_));
    }
    burn_.emplace(serve.telemetry);
    if (tracing_)
        alertRunId_ =
            obs::TraceCollector::global().beginRun("serve/alerts");
}

void
ServeTelemetry::enqueued(size_t s)
{
    ++queued_;
    if (s < tenantDepth_.size())
        ++tenantDepth_[s];
}

void
ServeTelemetry::dequeued(size_t s)
{
    --queued_;
    if (s < tenantDepth_.size())
        --tenantDepth_[s];
}

void
ServeTelemetry::span(uint32_t run, const char *name, const char *lane,
                     double startNs, double durNs) const
{
    if (!tracing_)
        return;
    obs::SimSpan span;
    span.name = name;
    span.lane = lane;
    span.category = "Serve";
    span.run = run;
    span.startUs = startNs * 1e-3;
    span.durUs = durNs * 1e-3;
    obs::TraceCollector::global().recordSimSpan(std::move(span));
}

void
ServeTelemetry::rejected(size_t s, RejectCause cause, double atNs)
{
    if (cause == RejectCause::DeadlineShed)
        span(runIds_[s], "Shed", "Shed", atNs, 0.0);
    if (sampling_) {
        const Series series =
            cause == RejectCause::QueueFull     ? kRejectQueueFull
            : cause == RejectCause::RateLimited ? kRejectRateLimited
                                                : kRejectShed;
        series_[series]->observe(atNs, 1.0);
    }
}

void
ServeTelemetry::completed(size_t s, const ServeRequest &req)
{
    if (sampling_) {
        series_[kLatency]->observe(req.endNs,
                                   req.endNs - req.arrivalNs);
        series_[kDeadlineMet]->observe(req.endNs,
                                       req.deadlineMet ? 1.0 : 0.0);
        if (req.deadlineMet)
            series_[kGoodput]->observe(req.endNs, 1.0);
    }
    if (tracing_) {
        obs::recordRunTimeline(runIds_[s], req.result);
        obs::publishRunMetrics(req.result, runIds_[s]);
    } else {
        obs::publishRunMetrics(req.result);
    }
}

void
ServeTelemetry::saved(size_t s, double atNs, double durNs)
{
    if (sampling_)
        series_[kPreemptSave]->observe(atNs, durNs);
    span(runIds_[s], "Save", "Preempt", atNs, durNs);
}

void
ServeTelemetry::restored(size_t s, double atNs, double durNs)
{
    span(runIds_[s], "Restore", "Preempt", atNs, durNs);
}

void
ServeTelemetry::repriced(double atNs)
{
    if (sampling_)
        series_[kReprice]->observe(atNs, 1.0);
}

/** Close tick `nextTick_`: sample the gauge-style series and feed the
 *  burn-rate evaluator with this tick's (deadline-met, resolved)
 *  deltas. Sampled state is whatever is current when the event loop
 *  crosses the boundary — deterministic, since the loop itself is. */
void
ServeTelemetry::closeTick(const ServeStats &stats)
{
    const double windowStart = static_cast<double>(nextTick_) * tickNs_;
    // Observe at the window midpoint so the sample can never land in a
    // neighboring window through floating-point division.
    const double mid = windowStart + 0.5 * tickNs_;

    for (size_t s = 0; s < tenantSeries_.size(); ++s) {
        tenantSeries_[s]->observe(mid,
                                  static_cast<double>(tenantDepth_[s]));
    }
    series_[kQueueDepth]->observe(mid, static_cast<double>(queued_));
    series_[kGpuBusy]->observe(
        mid, (stats.gpuBusyNs - lastGpuBusyNs_) / tickNs_);
    series_[kPimBusy]->observe(
        mid, (stats.pimBusyNs - lastPimBusyNs_) / tickNs_);
    lastGpuBusyNs_ = stats.gpuBusyNs;
    lastPimBusyNs_ = stats.pimBusyNs;

    // SLO view of the tick: deadline-met completions over everything
    // that resolved (completions + deadline sheds — a shed IS a missed
    // deadline from the client's seat). Queue-full / rate-limit
    // rejections are admission policy, not SLO failures.
    const uint64_t resolved = stats.completed + stats.shedDeadline;
    const uint64_t good = stats.deadlineMet - lastDeadlineMet_;
    const uint64_t total = resolved - lastResolved_;
    lastDeadlineMet_ = stats.deadlineMet;
    lastResolved_ = resolved;
    const auto eval = burn_->update(good, total);
    series_[kFastBurn]->observe(mid, eval.fastBurn);
    series_[kSlowBurn]->observe(mid, eval.slowBurn);
    if (eval.fired)
        alertStartNs_ = windowStart;
    if (eval.resolved && alertStartNs_ >= 0.0) {
        span(alertRunId_, "SLOBurn", "Alert", alertStartNs_,
             windowStart + tickNs_ - alertStartNs_);
        alertStartNs_ = -1.0;
    }
    ++nextTick_;
}

void
ServeTelemetry::tickTo(double simNs, const ServeStats &stats)
{
    if (!sampling_)
        return;
    while ((static_cast<double>(nextTick_) + 1.0) * tickNs_ <= simNs)
        closeTick(stats);
}

void
ServeTelemetry::finish(ServeResult &out)
{
    ServeStats &stats = out.stats;
    if (sampling_) {
        tickTo(stats.makespanNs, stats);
        // The run rarely ends on a boundary: close the final partial
        // tick so trailing completions still reach the burn windows.
        if (stats.makespanNs > static_cast<double>(nextTick_) * tickNs_)
            closeTick(stats);
        if (burn_->firing() && alertStartNs_ >= 0.0) {
            span(alertRunId_, "SLOBurn", "Alert", alertStartNs_,
                 std::max(stats.makespanNs - alertStartNs_, 0.0));
            alertStartNs_ = -1.0;
        }
        // Materialize trailing idle windows on the event-style series
        // so every series of the run spans the same [0, makespan]
        // range.
        for (size_t i = 0; i < kEventSeries; ++i)
            series_[i]->advanceTo(stats.makespanNs);
        stats.alertsFired = burn_->alertsFired();
        stats.alertsResolved = burn_->alertsResolved();
        stats.alertTicksFiring = burn_->ticksFiring();
    }
    publishServeMetrics(stats);
    if (!tracing_)
        return;
    // Per-stream fault bill under the stream's Perfetto run id.
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    for (size_t s = 0; s < out.streams.size(); ++s) {
        const ServeStreamResult &sr = out.streams[s];
        const std::string prefix = "run." + std::to_string(runIds_[s]);
        reg.gauge(prefix + ".serve.retries")
            .set(static_cast<double>(sr.pimRetries));
        reg.gauge(prefix + ".serve.rollbacks")
            .set(static_cast<double>(sr.rollbacks));
        reg.gauge(prefix + ".serve.gpu_fallbacks")
            .set(static_cast<double>(sr.gpuFallbacks));
        reg.gauge(prefix + ".serve.migrations")
            .set(static_cast<double>(sr.migrations));
        reg.gauge(prefix + ".serve.unrecovered")
            .set(static_cast<double>(sr.unrecovered));
    }
}

} // namespace anaheim::serve
