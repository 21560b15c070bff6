/**
 * @file
 * The serving run's recorder (DESIGN.md §17): everything a serve run
 * reports besides its ServeResult. It owns the run's time series and
 * per-tenant queue depths, the SLO burn-rate evaluator and its Alert
 * episodes, the per-stream Perfetto runs with their Shed / Save /
 * Restore / SLOBurn spans and request timelines, and the serve.* and
 * run.* metrics. The scheduler calls it at each event it decides; the
 * recorder only observes, so a sampled, traced run is bitwise
 * identical to a silent one.
 */

#ifndef ANAHEIM_SERVE_TELEMETRY_H
#define ANAHEIM_SERVE_TELEMETRY_H

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/timeseries.h"
#include "serve/scheduler.h"

namespace anaheim::serve {

class ServeTelemetry
{
  public:
    /** Starts one Perfetto run per stream of `streams` (tracing on) and
     *  the run's series namespace and Alert lane (serve.telemetry.tickNs
     *  > 0 and series sampling on). */
    ServeTelemetry(const ServeConfig &serve,
                   const std::vector<ServeStreamResult> &streams);

    /** A request entered / left stream s's queue. */
    void enqueued(size_t s);
    void dequeued(size_t s);
    /** A request of stream s was refused for `cause` at `atNs`. */
    void rejected(size_t s, RejectCause cause, double atNs);
    /** Request `req` of stream s completed (its result is final). */
    void completed(size_t s, const ServeRequest &req);
    /** Stream s's footprint was saved out (it was preempted) or
     *  restored, on the device at [atNs, atNs + durNs). */
    void saved(size_t s, double atNs, double durNs);
    void restored(size_t s, double atNs, double durNs);
    /** A degradation re-pricing pass ran at `atNs`. */
    void repriced(double atNs);
    /** Close every tick that ends at or before `simNs`. */
    void tickTo(double simNs, const ServeStats &stats);
    /** End of run: close the last ticks, fill in out.stats' alert
     *  counters, and publish the serve.* and per-stream metrics. */
    void finish(ServeResult &out);

  private:
    /** The run's series; the event-style ones come first. */
    enum Series : size_t {
        kLatency,
        kDeadlineMet,
        kGoodput,
        kRejectQueueFull,
        kRejectRateLimited,
        kRejectShed,
        kPreemptSave,
        kReprice,
        /** Gauge-style series, sampled once per closed tick. */
        kQueueDepth,
        kEventSeries = kQueueDepth,
        kGpuBusy,
        kPimBusy,
        kFastBurn,
        kSlowBurn,
        kSeriesCount
    };

    void closeTick(const ServeStats &stats);
    void span(uint32_t run, const char *name, const char *lane,
              double startNs, double durNs) const;

    const double tickNs_;
    const bool tracing_;
    /** telemetry.tickNs > 0; no series, evaluator or Alert lane
     *  exists otherwise. */
    const bool sampling_;
    /** Perfetto run id of each stream's track (0 without tracing). */
    std::vector<uint32_t> runIds_;
    std::array<obs::TimeSeries *, kSeriesCount> series_{};
    /** Per-tenant queue-depth series for the first kMaxTenantSeries
     *  streams (bounded export size), with those queues' depths. */
    static constexpr size_t kMaxTenantSeries = 8;
    std::vector<obs::TimeSeries *> tenantSeries_;
    std::vector<size_t> tenantDepth_;
    /** Requests waiting in stream queues, summed over the streams. */
    size_t queued_ = 0;
    std::optional<obs::BurnRateEvaluator> burn_;
    /** Next tick boundary not yet closed, as a tick index. */
    uint64_t nextTick_ = 0;
    /** Cumulative counters at the last closed tick (deltas feed the
     *  per-tick burn windows and busy fractions). */
    uint64_t lastDeadlineMet_ = 0;
    uint64_t lastResolved_ = 0;
    double lastGpuBusyNs_ = 0.0;
    double lastPimBusyNs_ = 0.0;
    /** Perfetto run id for the engine-global Alert lane (tracing). */
    uint32_t alertRunId_ = 0;
    /** Simulated start of the in-flight alert episode (< 0 = none). */
    double alertStartNs_ = -1.0;
};

} // namespace anaheim::serve

#endif // ANAHEIM_SERVE_TELEMETRY_H
