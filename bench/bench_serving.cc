/**
 * @file
 * Multi-tenant serving benchmark: open-loop Poisson load against the
 * ServeScheduler (DESIGN.md §15), reporting a throughput-vs-latency
 * (p50/p99) curve plus device-utilization and batching columns for
 * each offered-load point.
 *
 * The stream population alternates a GPU-heavy trace (an HMULT chain:
 * ~90% GPU roofline time) with a PIM-heavy trace (an element-wise
 * HADD/PMULT chain calibrated to the same service time), so the two
 * device clocks carry comparable demand and cross-trace GPU<->PIM
 * overlap is the dominant effect. Every load point runs twice on
 * identical arrivals: once serialized (overlap and batching off — the
 * back-to-back baseline) and once with the full scheduler; the
 * speedup_vs_serial column is the throughput ratio at equal offered
 * load, and is expected to exceed 1.5x at saturating load with the
 * default 8 streams.
 *
 * Flags (parsed by bench::Flags, bench_util.h):
 *   --streams=N      concurrent client streams (default 8)
 *   --requests=N     requests per stream (default 4, at most 2^20)
 *   --seed=S         arrival-process seed
 *   --repeats=N      HMULTs chained into the GPU-heavy trace
 *   --smoke          two load points / two requests for ctest
 *   --json <path>    machine-readable curve
 *   --trace/--metrics <path>   Perfetto / metrics export (the trace
 *                    shows one track per stream; GPU spans of one
 *                    stream overlap PIM spans of others; the metrics
 *                    JSON carries a per-run timeseries section)
 *   --prom <path>    Prometheus text exposition of the same metrics
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
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
    size_t requests = 4;
    uint64_t seed = 0x5eedca11u;
    size_t repeats = 1;
    bool smoke = false;
    std::vector<double> multipliers{0.25, 0.5, 1.0, 2.0, 4.0};
};

} // namespace

static int
run(int argc, char **argv)
{
    Options opts;
    bench::Flags flags("bench_serving", argc, argv);
    // Keep the default requests/stream: the top load point must still
    // clear the 1.5x overlap bar the validator enforces, and shorter
    // runs are ramp-dominated.
    if ((opts.smoke = flags.smoke()))
        opts.multipliers = {0.5, 4.0};
    flags.count("--streams", opts.streams);
    flags.count("--requests", opts.requests, serve::kMaxRequestsPerStream);
    flags.seed("--seed", opts.seed);
    flags.count("--repeats", opts.repeats);
    bench::JsonScope json(opts.smoke ? "serving_smoke" : "serving",
                          flags);
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    bench::reportConfig(json.report(), config);
    json.report().metric("smoke", opts.smoke ? "yes" : "no");
    json.report().metric("streams",
                         static_cast<double>(opts.streams));
    json.report().metric("requests_per_stream",
                         static_cast<double>(opts.requests));
    json.report().metric("arrival_seed",
                         static_cast<double>(opts.seed));

    const AnaheimFramework fw(config);
    const bench::TenantMix mix = bench::tenantMix(fw, opts.repeats);
    json.report().metric("serial_capacity_rps", mix.serialCapacityRps);

    bench::header(
        "Multi-tenant serving: open-loop Poisson load, " +
        std::to_string(opts.streams) + " streams x " +
        std::to_string(opts.requests) +
        " requests (hmult_chain / ew_chain alternating)");
    std::printf("  service: hmult_chain %.3f ms, ew_chain %.3f ms "
                "(%zu ew pairs), serial capacity %.0f req/s\n\n",
                mix.gpuHeavyNs * 1e-6, mix.pimHeavyNs * 1e-6, mix.pairs,
                mix.serialCapacityRps);

    bench::Table table(json.report(), {
        // The trailing spaces left-align this header one past the
        // width of its cells.
        {"offered_rps", "offered     ", "%9.0f/s"},
        {"serial_throughput_rps", "serial", "%8.0f/s"},
        {"throughput_rps", "overlap", "%8.0f/s"},
        {"speedup_vs_serial", "speedup", "%7.2fx"},
        {"p50_ms", "p50 ms", "%9.3f"},
        {"p99_ms", "p99 ms", "%9.3f"},
        {"mean_ms"},
        {"gpu_util", "gpu", "%6.0f%%", 100.0},
        {"pim_util", "pim", "%6.0f%%", 100.0},
        {"batches"},
        {"batched_ops", "batched", "%8.0f"},
        {"admitted"}, {"rejected"}, {"completed"},
    });

    double peakSpeedup = 0.0;
    for (const double mult : opts.multipliers) {
        const double offeredRps = mult * mix.serialCapacityRps;
        ServeConfig serveCfg;
        serveCfg.streams = opts.streams;
        serveCfg.requestsPerStream = opts.requests;
        serveCfg.offeredRps = offeredRps;
        serveCfg.arrivalSeed = opts.seed;
        // Two scheduling classes: GPU-heavy tenants (even streams) win
        // PIM dispatch ties, so their short element-wise segments jump
        // ahead of the long ew chains and the GPU never starves.
        serveCfg.priorityClasses = 2;
        // One telemetry window per mean service time: queue depth,
        // busy fractions and latency evolve over a handful of windows
        // even at smoke scale (--metrics gets a timeseries section,
        // --prom the text exposition).
        serveCfg.telemetry.tickNs = mix.meanServiceNs;

        ServeConfig serialCfg = serveCfg;
        serialCfg.overlap = false;
        serialCfg.batching = false;
        const serve::ServeStats serial =
            serve::ServeScheduler(fw, serialCfg).run(mix.traces).stats;
        const serve::ServeStats ov =
            serve::ServeScheduler(fw, serveCfg).run(mix.traces).stats;

        const double speedup =
            serial.throughputRps() > 0.0
                ? ov.throughputRps() / serial.throughputRps()
                : 0.0;
        peakSpeedup = std::max(peakSpeedup, speedup);
        const double meanNs =
            std::accumulate(ov.latenciesNs.begin(), ov.latenciesNs.end(),
                            0.0) /
            std::max<double>(1.0, ov.latenciesNs.size());

        table.row({offeredRps, serial.throughputRps(), ov.throughputRps(),
                   speedup, ov.percentileNs(50.0) * 1e-6,
                   ov.percentileNs(99.0) * 1e-6, meanNs * 1e-6,
                   ov.gpuUtil(), ov.pimUtil(), ov.batches, ov.batchedOps,
                   ov.admitted, ov.rejected, ov.completed});
    }
    json.report().metric("peak_speedup_vs_serial", peakSpeedup);

    bench::note("speedup_vs_serial = overlapped/serial throughput on "
                "identical Poisson arrivals; serial = overlap+batching "
                "off (back-to-back device). GPU-heavy and PIM-heavy "
                "tenants alternate, so the gain is cross-trace "
                "GPU<->PIM overlap plus fused PIM dispatches");
    return 0;
}

int
main(int argc, char **argv)
{
    return runGuardedMain("bench_serving",
                          [&] { return run(argc, argv); });
}
