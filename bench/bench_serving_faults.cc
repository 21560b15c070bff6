/**
 * @file
 * Serving-under-faults chaos benchmark (DESIGN.md §16): the full SLO
 * stack — deadline classes, per-tenant token-bucket rate limiting,
 * priority preemption, and mid-serve degradation re-pricing — swept
 * across fault scenarios x offered load against one simulated GPU+PIM
 * device.
 *
 * Scenarios: a healthy device, a transient-fault device (BER 1e-6,
 * heavy enough that the ECC/checksum/checkpoint recovery ladder is
 * visibly exercised), and a degraded device (BER 1e-7 plus one
 * permanently dead bank that health monitoring quarantines
 * mid-serve). Each row reports availability
 * (completed/offered), goodput (deadline-met completions per second),
 * tail latency, and the three-way rejection split (queue-full vs
 * rate-limited vs deadline-shed — the causes partition `rejected`
 * exactly, which the validator re-checks).
 *
 * Two headline gates (scripts/validate_bench.py):
 *   - goodput_floor_ratio: degraded-device goodput at moderate load
 *     must stay within 20% of the healthy baseline (>= 0.8);
 *   - preempt_identical: a preempted run's RunResult (energy, traffic,
 *     fault counters, per-step durations) must match the unpreempted
 *     schedule — preemption pays with scheduler time, never with any
 *     tenant's computation.
 *
 * Flags (parsed by bench::Flags, bench_util.h):
 *   --streams=N      concurrent client streams (default 8)
 *   --requests=N     requests per stream (default 6, at most 2^20)
 *   --seed=S         arrival-process seed
 *   --smoke          two load points for ctest
 *   --json <path>    machine-readable sweep
 *   --trace/--metrics <path>  Perfetto / metrics export (per-stream
 *                    tracks plus Shed/Preempt/Alert event lanes; the
 *                    metrics JSON carries a per-run timeseries section)
 *   --prom <path>    Prometheus text exposition of the same metrics
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "anaheim/framework.h"
#include "common/status.h"
#include "scenario.h"
#include "serve/scheduler.h"

using namespace anaheim;

namespace {

struct Options {
    size_t streams = 8;
    size_t requests = 6;
    uint64_t seed = 0x5eedca11u;
    bool smoke = false;
    std::vector<double> multipliers{0.25, 0.5, 1.0, 2.0};
};

/** One fault scenario of the sweep. */
struct Scenario {
    const char *name;
    double ber;
    bool permanentBank;
};

/** Every scenario pays for the same recovery ladder (ECC + checksums
 *  + checkpoints + health monitoring); only the injected faults vary,
 *  so goodput deltas measure fault recovery, not policy overhead. */
AnaheimConfig
configFor(const Scenario &scenario)
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    ResilienceConfig &rc = config.resilience;
    rc.ber = scenario.ber;
    rc.checksumEnabled = true;
    rc.checkpoint.enabled = true;
    rc.checkpoint.intervalSegments = 4;
    rc.checkpoint.maxRollbacks = 32;
    rc.health.enabled = true;
    rc.health.permanentThreshold = 2;
    if (scenario.permanentBank)
        rc.permanentBanks.push_back({2, 17});
    return config;
}

/** Per-step durations + schedule-independent totals must match between
 *  a preempting and a non-preempting schedule (timestamps may differ:
 *  the runs embed at different offsets). */
bool
resultsIdentical(const serve::ServeResult &a, const serve::ServeResult &b)
{
    if (a.streams.size() != b.streams.size())
        return false;
    for (size_t s = 0; s < a.streams.size(); ++s) {
        const auto &ra = a.streams[s].requests;
        const auto &rb = b.streams[s].requests;
        if (ra.size() != rb.size())
            return false;
        for (size_t k = 0; k < ra.size(); ++k) {
            const RunResult &x = ra[k].result;
            const RunResult &y = rb[k].result;
            if (x.energyPj != y.energyPj ||
                x.gpuDramBytes != y.gpuDramBytes ||
                x.pimInternalBytes != y.pimInternalBytes ||
                x.resilience.faultyWords != y.resilience.faultyWords ||
                x.resilience.pimRetries != y.resilience.pimRetries ||
                x.resilience.rollbacks != y.resilience.rollbacks ||
                x.resilience.unrecovered != y.resilience.unrecovered ||
                x.timeline.size() != y.timeline.size())
                return false;
            for (size_t e = 0; e < x.timeline.size(); ++e) {
                const double da =
                    x.timeline[e].endNs - x.timeline[e].startNs;
                const double db =
                    y.timeline[e].endNs - y.timeline[e].startNs;
                if (x.timeline[e].phase != y.timeline[e].phase ||
                    x.timeline[e].device != y.timeline[e].device ||
                    std::abs(da - db) > 1e-6)
                    return false;
            }
        }
    }
    return true;
}

} // namespace

static int
run(int argc, char **argv)
{
    Options opts;
    bench::Flags flags("bench_serving_faults", argc, argv);
    if ((opts.smoke = flags.smoke()))
        opts.multipliers = {0.25, 2.0};
    flags.count("--streams", opts.streams);
    flags.count("--requests", opts.requests, serve::kMaxRequestsPerStream);
    flags.seed("--seed", opts.seed);
    bench::JsonScope json(
        opts.smoke ? "serving_faults_smoke" : "serving_faults", flags);
    AnaheimConfig healthy = AnaheimConfig::a100NearBank();
    bench::reportConfig(json.report(), healthy);
    json.report().metric("smoke", opts.smoke ? "yes" : "no");
    json.report().metric("streams", static_cast<double>(opts.streams));
    json.report().metric("requests_per_stream",
                         static_cast<double>(opts.requests));
    json.report().metric("arrival_seed",
                         static_cast<double>(opts.seed));

    // Trace population and serial capacity, calibrated on the
    // healthy-scenario framework — recovery-ladder overhead included —
    // so load multipliers and deadline classes are sized against what
    // a request actually costs under the serving policy.
    const bench::TenantMix mix = bench::tenantMix(
        AnaheimFramework(configFor({"healthy", 0.0, false})), 1);
    json.report().metric("serial_capacity_rps", mix.serialCapacityRps);

    // The SLO policy under test: two deadline classes spanning a few
    // service times, a per-tenant rate limit at 1.5x the fair share,
    // a short queue, and priority preemption.
    const auto serveFor = [&](double offeredRps) {
        ServeConfig serve;
        serve.streams = opts.streams;
        serve.requestsPerStream = opts.requests;
        serve.offeredRps = offeredRps;
        serve.arrivalSeed = opts.seed;
        serve.priorityClasses = 2;
        serve.maxQueuedPerStream = 2;
        serve.deadlineClassNs = {3.0 * mix.meanServiceNs,
                                 6.0 * mix.meanServiceNs};
        serve.rateLimitRps = 1.5 * mix.serialCapacityRps /
                             static_cast<double>(opts.streams);
        // Burst deeper than the queue: an over-rate tenant hits the
        // queue-full wall before its bucket empties, so both rejection
        // causes show up in the sweep.
        serve.rateLimitBurst = 3.0;
        serve.preemption = true;
        // Telemetry tick ~= one mean service time, with a tight SLO and
        // a short fast/slow pair: sized so the degraded scenario's
        // deadline misses burn the error budget visibly within a smoke
        // run, firing the Alert lane (gated by validate_bench.py).
        serve.telemetry.tickNs = mix.meanServiceNs;
        serve.telemetry.sloTarget = 0.9;
        serve.telemetry.fastWindowTicks = 2;
        serve.telemetry.slowWindowTicks = 6;
        serve.telemetry.burnThreshold = 1.0;
        return serve;
    };

    const std::vector<Scenario> scenarios = {
        {"healthy", 0.0, false},
        {"transient", 1e-6, false},
        {"degraded", 1e-7, true},
    };
    const uint64_t totalRequests =
        static_cast<uint64_t>(opts.streams) * opts.requests;

    bench::header("Serving under faults: SLO stack (deadlines + rate "
                  "limit + preemption) x fault scenarios x load");
    std::printf("  service: hmult %.3f ms, ew %.3f ms; serial capacity "
                "%.0f req/s; deadlines {3x, 6x} mean service\n\n",
                mix.gpuHeavyNs * 1e-6, mix.pimHeavyNs * 1e-6,
                mix.serialCapacityRps);
    bench::Table table(json.report(), {
        {"scenario", "scenario", "%-10s"},
        {"ber"}, {"permanent_banks"},
        // The trailing spaces left-align this header one past the
        // width of its cells.
        {"load_multiplier", "load    ", "%6.2fx"},
        {"offered_rps"},
        {"goodput_rps", "goodput", "%7.0f/s"},
        {"availability", "avail", "%7.2f%%", 100.0},
        {"throughput_rps"}, {"p50_ms"},
        {"p99_ms", "p99 ms", "%9.3f"},
        {"deadline_met", "dl-met", "%9.0f"},
        {"admitted"}, {"completed"}, {"rejected"},
        {"rejected_queue_full", "q-full", "%6.0f"},
        {"rejected_rate_limited", "r-lim", "%6.0f"},
        {"shed_deadline", "shed", "%6.0f"},
        {"preemptions", "preempt", "%8.0f"},
        {"preemption_overhead_ns"},
        {"reprice_events", "reprice", "%8.0f"},
        {"alerts_fired"}, {"alert_ticks_firing"},
        {"tenant_retries"}, {"tenant_gpu_fallbacks"},
    });

    // goodput keyed by load multiplier for the healthy baseline.
    std::map<double, double> healthyGoodput;
    double floorRatio = std::numeric_limits<double>::infinity();
    bool partitionOk = true;

    for (const Scenario &scenario : scenarios) {
        const AnaheimFramework fw(configFor(scenario));
        for (const double mult : opts.multipliers) {
            const double offeredRps = mult * mix.serialCapacityRps;
            const auto result =
                serve::ServeScheduler(fw, serveFor(offeredRps))
                    .run(mix.traces);
            const serve::ServeStats &st = result.stats;

            const double goodput = st.goodputRps();
            if (scenario.ber == 0.0 && !scenario.permanentBank)
                healthyGoodput[mult] = goodput;
            // The headline resilience gate: degraded-device goodput at
            // the moderate (lowest) load vs the healthy baseline.
            if (scenario.permanentBank && mult == opts.multipliers[0] &&
                healthyGoodput[mult] > 0.0)
                floorRatio = std::min(floorRatio,
                                      goodput / healthyGoodput[mult]);
            partitionOk = partitionOk &&
                          st.rejected == st.rejectedQueueFull +
                                             st.rejectedRateLimited +
                                             st.shedDeadline;

            uint64_t tenantRetries = 0;
            uint64_t tenantFallbacks = 0;
            for (const auto &stream : result.streams) {
                tenantRetries += stream.pimRetries + stream.rollbacks;
                tenantFallbacks += stream.gpuFallbacks;
            }

            table.row({scenario.name, scenario.ber,
                       scenario.permanentBank ? 1.0 : 0.0, mult,
                       offeredRps, goodput,
                       static_cast<double>(st.completed) /
                           static_cast<double>(totalRequests),
                       st.throughputRps(), st.percentileNs(50.0) * 1e-6,
                       st.percentileNs(99.0) * 1e-6, st.deadlineMet,
                       st.admitted, st.completed, st.rejected,
                       st.rejectedQueueFull, st.rejectedRateLimited,
                       st.shedDeadline, st.preemptions,
                       st.preemptionOverheadNs, st.repriceEvents,
                       st.alertsFired, st.alertTicksFiring, tenantRetries,
                       tenantFallbacks});
        }
    }

    // Preemption-identity experiment: same faulty device, same
    // arrivals, preemption on vs off (batching off so transition
    // charges can't shift between requests; admission policies off so
    // both schedules execute the identical request set). The schedules
    // differ — the computations must not.
    ServeConfig identOn = serveFor(0.5 * mix.serialCapacityRps);
    identOn.batching = false;
    identOn.deadlineClassNs.clear();
    identOn.rateLimitRps = 0.0;
    identOn.maxQueuedPerStream = 64;
    ServeConfig identOff = identOn;
    identOff.preemption = false;
    const AnaheimFramework faultyFw(configFor(scenarios[1]));
    const auto preempted =
        serve::ServeScheduler(faultyFw, identOn).run(mix.traces);
    const auto unpreempted =
        serve::ServeScheduler(faultyFw, identOff).run(mix.traces);
    const bool identical = resultsIdentical(preempted, unpreempted);
    json.report().metric(
        "preempt_identical",
        identical && unpreempted.stats.preemptions == 0 ? 1.0 : 0.0);
    json.report().metric(
        "preemptions_observed",
        static_cast<double>(preempted.stats.preemptions));
    json.report().metric("goodput_floor_ratio",
                         std::isfinite(floorRatio) ? floorRatio : 0.0);
    json.report().metric("causes_partition_ok", partitionOk ? 1.0 : 0.0);
    for (const std::string key :
         {"rejected_queue_full", "rejected_rate_limited", "shed_deadline",
          "alerts_fired", "alert_ticks_firing"})
        json.report().metric("sweep_" + key, table.total(key));

    std::printf("\n  preemption identity: %s (%llu preemptions); "
                "degraded goodput floor %.3f of healthy; "
                "%.0f SLO burn alerts over the sweep\n",
                identical ? "BIT-IDENTICAL" : "DIVERGED",
                static_cast<unsigned long long>(
                    preempted.stats.preemptions),
                std::isfinite(floorRatio) ? floorRatio : 0.0,
                table.total("alerts_fired"));
    bench::note("goodput = deadline-met completions/s; availability = "
                "completed/offered. rejected splits exactly into "
                "queue-full + rate-limited + deadline-shed. The "
                "degraded scenario quarantines one dead bank mid-serve "
                "and re-prices queued work on the degraded geometry");
    return 0;
}

int
main(int argc, char **argv)
{
    return runGuardedMain("bench_serving_faults",
                          [&] { return run(argc, argv); });
}
