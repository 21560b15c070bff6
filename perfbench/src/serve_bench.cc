/**
 * @file
 * serve-chaos: 256 tenant streams on one degraded GPU+PIM device, one
 * ServeScheduler::run per operation, runs back to back, and the probe of
 * the layers only serving exercises (serve, sim faults, obs telemetry).
 *
 * The set-up copies bench_serving_faults' degraded scenario: alternating
 * HMult-chain and element-wise-chain tenants; deadline classes at 3x
 * and 6x the mean service time, a per-tenant token bucket at 1.5x the
 * fair share, a 2-deep queue, 2 priority classes with preemption,
 * telemetry at one tick per mean service time; BER 1e-7 with checksums,
 * checkpoints and health monitoring, and one dead bank that health
 * monitoring quarantines mid-serve. Arrivals are open-loop Poisson at
 * twice the serial capacity, so every stream keeps queued work.
 */

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "anaheim/framework.h"
#include "bench.h"
#include "common/status.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/scheduler.h"
#include "serve/slo.h"
#include "trace/builders.h"

namespace perfbench {
namespace {

using namespace anaheim;

enum SeedRole : uint64_t { kArrivals = 100, kFaults };

/** Streams of the workload; per-stream load and rate limit are sized
 *  against this count, so smaller stream counts see the same
 *  per-stream load. */
constexpr size_t kStreams = 256;
/** Requests each stream generates per run. */
constexpr size_t kRequests = 4;
/** The stream_scaling comparison point. */
constexpr size_t kFewStreams = 32;
/** Offered load, in multiples of the serial capacity. */
constexpr double kLoad = 2.0;
/** The dead bank health monitoring quarantines mid-serve. */
const PermanentBankFault kDeadBank{2, 17};

/** bench_serving_faults' recovery ladder; `faults` adds its degraded
 *  scenario's BER and dead bank. */
AnaheimConfig
chaosConfig(bool faults, uint64_t faultSeed)
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    ResilienceConfig &rc = config.resilience;
    rc.checksumEnabled = true;
    rc.checkpoint.enabled = true;
    rc.checkpoint.intervalSegments = 4;
    rc.checkpoint.maxRollbacks = 32;
    rc.health.enabled = true;
    rc.health.permanentThreshold = 2;
    if (faults) {
        rc.ber = 1e-7;
        rc.permanentBanks.push_back(kDeadBank);
        rc.faultSeed = faultSeed;
    }
    return config;
}

/** PIM-heavy tenant: element-wise HADD/PMULT pairs. */
OpSequence
elementWiseChain(size_t pairs)
{
    const TraceParams params;
    const OpSequence add = buildHAdd(params);
    const OpSequence mult = buildPMult(params);
    OpSequence seq = add;
    seq.append(mult);
    for (size_t r = 1; r < pairs; ++r) {
        seq.append(add);
        seq.append(mult);
    }
    seq.name = "ew_chain";
    return seq;
}

/** Tenant traces, calibrated like bench_serving_faults: service times
 *  priced on the fault-free device with the recovery ladder on. */
struct ServeState {
    explicit ServeState(uint64_t seed)
        : framework(chaosConfig(true, subSeed(seed, kFaults))),
          healthy(chaosConfig(false, 0))
    {
        OpSequence hmult = buildHMult(TraceParams{});
        hmult.name = "hmult_chain";
        const double hmultNs = healthy.execute(hmult).totalNs;
        const double pairNs = healthy.execute(elementWiseChain(1)).totalNs;
        const size_t pairs = std::max<size_t>(
            1, static_cast<size_t>(hmultNs / pairNs + 0.5));
        OpSequence ew = elementWiseChain(pairs);
        const double ewNs = healthy.execute(ew).totalNs;
        traces = {std::move(hmult), std::move(ew)};
        meanServiceNs = (hmultNs + ewNs) / 2.0;
        arrivalSeed = subSeed(seed, kArrivals);
        estimator = std::make_unique<serve::ServiceEstimator>(
            framework.config(), traces);
    }

    double serialCapacityRps() const { return 1e9 / meanServiceNs; }

    ServeConfig
    config(size_t streams, size_t requests) const
    {
        const double perStreamCapacity =
            serialCapacityRps() / static_cast<double>(kStreams);
        ServeConfig serve;
        serve.streams = streams;
        serve.requestsPerStream = requests;
        serve.offeredRps =
            kLoad * perStreamCapacity * static_cast<double>(streams);
        serve.arrivalSeed = arrivalSeed;
        serve.priorityClasses = 2;
        serve.maxQueuedPerStream = 2;
        serve.deadlineClassNs = {3.0 * meanServiceNs, 6.0 * meanServiceNs};
        serve.rateLimitRps = 1.5 * perStreamCapacity;
        serve.rateLimitBurst = 3.0;
        serve.preemption = true;
        serve.telemetry.tickNs = meanServiceNs;
        serve.telemetry.sloTarget = 0.9;
        serve.telemetry.fastWindowTicks = 2;
        serve.telemetry.slowWindowTicks = 6;
        serve.telemetry.burnThreshold = 1.0;
        return serve;
    }

    /** The quarantine map after the dead bank is retired. */
    ResourceMap
    degradedMap() const
    {
        const PimConfig &pim = framework.config().pim;
        ResourceMap map;
        map.dieGroups = pim.dieGroups;
        map.banksPerDieGroup = pim.banksPerDieGroup;
        map.lanesPerUnit = pim.lanes;
        map.quarantined.push_back(
            {FaultSiteId::Kind::Bank, kDeadBank.dieGroup, kDeadBank.bank});
        return map;
    }

    AnaheimFramework framework;
    AnaheimFramework healthy;
    std::vector<OpSequence> traces;
    double meanServiceNs = 0.0;
    uint64_t arrivalSeed = 0;
    std::unique_ptr<serve::ServiceEstimator> estimator;
};

/** One scheduler run, timed. The previous run's telemetry series are
 *  dropped first, untimed, so memory stays flat over many runs. */
double
timedRun(const ServeState &state, const ServeConfig &serve,
         serve::ServeResult &result)
{
    obs::TimeSeriesRegistry::global().clear();
    return timeIt([&] {
        result = serve::ServeScheduler(state.framework, serve)
                     .run(state.traces);
    });
}

/** "" when the schedule holds its invariants, else the first breach. */
std::string
checkSchedule(const serve::ServeResult &result, size_t expected)
{
    const serve::ServeStats &st = result.stats;
    if (st.rejected !=
        st.rejectedQueueFull + st.rejectedRateLimited + st.shedDeadline)
        return "rejection causes do not partition rejected";
    if (st.admitted != st.completed)
        return "admitted requests differ from completed";
    if (st.completed + st.rejected != expected)
        return "requests left unresolved";
    for (const auto &stream : result.streams) {
        for (const auto &req : stream.requests) {
            if (!req.rejected &&
                !(req.arrivalNs <= req.startNs && req.startNs <= req.endNs))
                return "request violates arrival <= start <= end";
        }
    }
    return "";
}

uint64_t
digestOf(const serve::ServeResult &result)
{
    const serve::ServeStats &st = result.stats;
    Digest d;
    for (const uint64_t v :
         {st.admitted, st.rejected, st.completed, st.rejectedQueueFull,
          st.rejectedRateLimited, st.shedDeadline, st.deadlineMet,
          st.preemptions, st.preemptionResumes, st.repriceEvents,
          st.alertsFired, st.alertsResolved, st.alertTicksFiring,
          st.batches, st.batchedOps})
        d.add(v);
    for (const double v : {st.makespanNs, st.gpuBusyNs, st.pimBusyNs,
                           st.preemptionOverheadNs})
        d.add(v);
    for (const double v : st.latenciesNs)
        d.add(v);
    for (const auto &stream : result.streams) {
        for (const auto &req : stream.requests) {
            d.add(req.arrivalNs);
            d.add(req.startNs);
            d.add(req.endNs);
            d.add(static_cast<uint64_t>(req.cause));
            d.add(req.result.totalNs);
            d.add(req.result.energyPj);
        }
    }
    return d.value();
}

/** ServeStats and summed tenant ResilienceStats of one run. */
void
addRunCounts(std::map<std::string, double> &out,
             const serve::ServeResult &result)
{
    const serve::ServeStats &st = result.stats;
    out["serve.completed"] = static_cast<double>(st.completed);
    out["serve.rejected_queue_full"] =
        static_cast<double>(st.rejectedQueueFull);
    out["serve.rejected_rate_limited"] =
        static_cast<double>(st.rejectedRateLimited);
    out["serve.shed_deadline"] = static_cast<double>(st.shedDeadline);
    out["serve.preemptions"] = static_cast<double>(st.preemptions);
    out["serve.batched_ops"] = static_cast<double>(st.batchedOps);
    out["serve.reprice_events"] = static_cast<double>(st.repriceEvents);
    out["serve.sim_p99_ms"] = st.percentileNs(99.0) * 1e-6;
    ResilienceStats sum;
    double executed = 0.0;
    for (const auto &stream : result.streams) {
        for (const auto &req : stream.requests) {
            if (req.rejected)
                continue;
            const ResilienceStats &r = req.result.resilience;
            sum.pimRetries += r.pimRetries;
            sum.rollbacks += r.rollbacks;
            sum.replayedSegments += r.replayedSegments;
            sum.migrations += r.migrations;
            for (const GanttEntry &e : req.result.timeline)
                executed += e.device == "GPU" || e.device == "PIM";
        }
    }
    out["sim.pim_retries"] = static_cast<double>(sum.pimRetries);
    out["sim.rollbacks"] = static_cast<double>(sum.rollbacks);
    out["sim.replayed_segments"] = static_cast<double>(sum.replayedSegments);
    out["sim.migrations"] = static_cast<double>(sum.migrations);
    // Wasted-work ratio: replayed over executed segments (GPU and PIM
    // timeline entries of the completed requests).
    out["sim.replay_ratio"] =
        executed > 0.0 ? static_cast<double>(sum.replayedSegments) / executed
                       : 0.0;
    out["serve.digest"] = digestValue(digestOf(result));
}

/** The serving-layer probes; `runSeconds` are host seconds of runs at
 *  kStreams x `requests` already measured (the workload's own loop, or
 *  the reduced probe's). */
void
probeServe(const Options &opts, ServeState &state, size_t requests,
           const std::vector<double> &runSeconds, Report &report)
{
    auto &layers = report.layers;
    const size_t reps = opts.quick ? 1 : 3;
    const double resolved = static_cast<double>(kStreams * requests);
    const double usPerRequest = mean(runSeconds) * 1e6 / resolved;
    layers["serve.host_us_per_request"] = usPerRequest;

    serve::ServeResult scratch;
    const ServeConfig few = state.config(kFewStreams, requests);
    const double fewSeconds = medianTime(reps, [&] {
        OBS_SPAN("perfbench/serve/run_few_streams");
        timedRun(state, few, scratch);
    });
    const double fewUs =
        fewSeconds * 1e6 / static_cast<double>(kFewStreams * requests);
    layers["serve.stream_scaling"] = usPerRequest / fewUs;

    layers["serve.estimator_ms"] = medianTime(reps, [&] {
        OBS_SPAN("perfbench/serve/estimator");
        keep(serve::ServiceEstimator(state.framework.config(),
                                     state.traces));
    }) * 1e3;
    // The set-up's estimator: the scheduler builds its own per run.
    const ResourceMap degraded = state.degradedMap();
    layers["serve.reprice_ms"] = medianTime(reps, [&] {
        OBS_SPAN("perfbench/serve/reprice");
        state.estimator->reprice(degraded, false);
    }) * 1e3;

    // obs: the same run with the telemetry tick on and off, host
    // tracing paused so only the telemetry differs.
    ServeConfig on = state.config(kStreams, requests);
    ServeConfig off = on;
    off.telemetry.tickNs = 0.0;
    anaheim::obs::setTracingEnabled(false);
    const double onSeconds =
        medianTime(reps, [&] { timedRun(state, on, scratch); });
    const double offSeconds =
        medianTime(reps, [&] { timedRun(state, off, scratch); });
    anaheim::obs::setTracingEnabled(true);
    layers["obs.telemetry_overhead"] = onSeconds / offSeconds;

    // sim: executing the PIM-heavy tenant under the chaos config vs on
    // the fault-free device.
    const OpSequence &ew = state.traces.back();
    const double chaos = medianTime(reps, [&] {
        OBS_SPAN("perfbench/sim/execute_chaos");
        keep(state.framework.execute(ew));
    });
    const double clean = medianTime(reps, [&] {
        OBS_SPAN("perfbench/sim/execute_clean");
        keep(state.healthy.execute(ew));
    });
    layers["sim.fault_overhead"] = chaos / clean;
}

} // namespace

void
runServeChaos(const Options &opts, Report &report)
{
    SetupTimer<ServeState, uint64_t> setup(opts, opts.seed);
    const size_t expected = kStreams * kRequests;
    std::vector<double> times;
    std::vector<double> rates;
    bool first = true;
    uint64_t firstDigest = 0;
    // Traced, each run records every request's timeline: keep only the
    // current run's spans in memory.
    const auto dropRecordedSpans = [] {
        if (obs::tracingEnabled())
            obs::TraceCollector::global().clear();
    };
    closedLoop(opts.seconds, 2, [&] {
        ++report.attempted;
        dropRecordedSpans();
        double t = 0.0;
        try {
            const ServeState &state = setup.state();
            serve::ServeResult result;
            t = timedRun(state, state.config(kStreams, kRequests), result);
            const std::string bad = checkSchedule(result, expected);
            const uint64_t digest = digestOf(result);
            if (first) {
                firstDigest = digest;
                addRunCounts(report.counts, result);
                first = false;
            }
            if (!bad.empty()) {
                report.fail(bad);
            } else if (digest != firstDigest) {
                report.fail("ServeStats differ between repetitions");
            } else {
                times.push_back(t);
                rates.push_back(static_cast<double>(result.stats.completed +
                                                    result.stats.rejected) /
                                t);
            }
        } catch (const AnaheimError &e) {
            report.fail(std::string("AnaheimError: ") + e.what());
        }
        setup.afterOperation(t);
    });
    dropRecordedSpans();
    setup.report(report);
    reportOps(report, times, rates);

    if (opts.traced) {
        OBS_SPAN("perfbench/probe/serve");
        for (const auto &[name, value] : report.counts)
            report.layers[name] = value;
        probeServe(opts, setup.state(), kRequests, times, report);
    }
}

void
probeServeLayers(const Options &opts, Report &report)
{
    OBS_SPAN("perfbench/probe/serve");
    // Reduced probe: one request per stream.
    ServeState state(opts.seed);
    const ServeConfig serve = state.config(kStreams, 1);
    std::vector<double> times;
    ++report.attempted;
    try {
        serve::ServeResult result;
        times.push_back(timedRun(state, serve, result));
        const std::string bad = checkSchedule(result, kStreams);
        if (!bad.empty())
            report.fail("serve probe: " + bad);
        addRunCounts(report.layers, result);
    } catch (const AnaheimError &e) {
        report.fail(std::string("serve probe: AnaheimError: ") + e.what());
    }
    probeServe(opts, state, 1, times, report);
}

} // namespace perfbench
