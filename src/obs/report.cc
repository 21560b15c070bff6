#include "report.h"

#include <cinttypes>

#include "obs/export.h"
#include "obs/trace.h"

namespace anaheim::obs {

const std::vector<std::string> &
AttributionReport::modes()
{
    static const std::vector<std::string> kModes = {
        "GPU-compute", "GPU-bandwidth", "PIM", "Other"};
    return kModes;
}

std::map<std::string, double>
AttributionReport::categoryTotalsNs() const
{
    std::map<std::string, double> totals;
    for (const auto &[category, cells] : rows) {
        for (const auto &[mode, cell] : cells) {
            (void)mode;
            totals[category] += cell.ns;
        }
    }
    return totals;
}

std::string
attributionCategory(const GanttEntry &entry)
{
    if (entry.device == "PIM")
        return "PIM";
    if (entry.device == "GPU" && entry.bound != BoundBy::None)
        return kernelClassName(entry.cls);
    // Maintenance phases (Scrub/Checkpoint/Rollback/Verify) are
    // categorized by phase, matching execute()'s chargePhase().
    return entry.phase;
}

std::string
attributionMode(const GanttEntry &entry)
{
    if (entry.device == "PIM")
        return "PIM";
    if (entry.device == "GPU" && entry.bound == BoundBy::Compute)
        return "GPU-compute";
    if (entry.device == "GPU" && entry.bound == BoundBy::Bandwidth)
        return "GPU-bandwidth";
    return "Other";
}

AttributionReport
buildAttribution(const RunResult &result)
{
    AttributionReport report;
    for (const GanttEntry &entry : result.timeline) {
        AttributionCell &cell =
            report.rows[attributionCategory(entry)]
                       [attributionMode(entry)];
        const double durNs = entry.endNs - entry.startNs;
        cell.ns += durNs;
        cell.energyPj += entry.energyPj;
        ++cell.kernels;
        report.totalNs += durNs;
        report.totalEnergyPj += entry.energyPj;
    }
    return report;
}

void
printAttribution(const RunResult &result, std::FILE *out)
{
    const AttributionReport report = buildAttribution(result);
    std::fprintf(out,
                 "  %-14s %12s %12s %12s %12s | %10s %6s\n", "category",
                 "GPU-comp ms", "GPU-bw ms", "PIM ms", "other ms",
                 "total ms", "share");
    const double total = result.totalNs > 0.0 ? result.totalNs : 1.0;
    for (const auto &[category, cells] : report.rows) {
        double rowNs = 0.0;
        std::fprintf(out, "  %-14s", category.c_str());
        for (const std::string &mode : AttributionReport::modes()) {
            const auto it = cells.find(mode);
            const double ns = it == cells.end() ? 0.0 : it->second.ns;
            rowNs += ns;
            std::fprintf(out, " %12.3f", ns * 1e-6);
        }
        std::fprintf(out, " | %10.3f %5.1f%%\n", rowNs * 1e-6,
                     100.0 * rowNs / total);
    }
    std::fprintf(out, "  %-14s %12s %12s %12s %12s | %10.3f %5.1f%%\n",
                 "total", "", "", "", "", report.totalNs * 1e-6,
                 100.0 * report.totalNs / total);
}

uint32_t
recordRunTimeline(const std::string &name, const RunResult &result)
{
    const uint32_t run = TraceCollector::global().beginRun(name);
    recordRunTimeline(run, result);
    return run;
}

void
recordRunTimeline(uint32_t runId, const RunResult &result)
{
    TraceCollector &collector = TraceCollector::global();
    for (const GanttEntry &entry : result.timeline) {
        SimSpan span;
        span.name = entry.phase;
        // Maintenance phases get their own lanes so recovery overhead
        // is visible next to the GPU/PIM streams.
        span.lane = entry.device == "DRAM" ? entry.phase : entry.device;
        if (entry.device == "GPU" && entry.bound == BoundBy::None)
            span.lane = entry.phase; // Verify passes priced on the GPU
        span.category = attributionCategory(entry);
        span.run = runId;
        span.startUs = entry.startNs * 1e-3;
        span.durUs = (entry.endNs - entry.startNs) * 1e-3;
        span.energyPj = entry.energyPj;
        collector.recordSimSpan(std::move(span));
    }
}

namespace {

const char *
pimStatusName(PimOffline status)
{
    switch (status) {
      case PimOffline::Online:
        return "online";
      case PimOffline::CapacityFloor:
        return "offline (capacity floor)";
      case PimOffline::PlanNoLongerFits:
        return "offline (plan no longer fits)";
    }
    return "?";
}

/** The per-run gauge block under one namespace prefix ("run.last" or
 *  "run.<id>"). */
void
publishRunGauges(const std::string &prefix, const RunResult &result,
                 MetricsRegistry &registry)
{
    registry.gauge(prefix + ".total_ns").set(result.totalNs);
    registry.gauge(prefix + ".energy_pj").set(result.energyPj);
    registry.gauge(prefix + ".gpu_dram_bytes").set(result.gpuDramBytes);
    registry.gauge(prefix + ".pim_internal_bytes")
        .set(result.pimInternalBytes);
    registry.gauge(prefix + ".timeline_entries")
        .set(static_cast<double>(result.timeline.size()));
    registry.gauge(prefix + ".pim_capacity_fraction")
        .set(result.pimCapacityFraction);
    registry.gauge(prefix + ".pim_offline")
        .set(result.pimOffline != PimOffline::Online ? 1.0 : 0.0);
    // Per-run resilience bill as gauges (the resilience.* counters
    // aggregate across runs; these attribute the cost to one run —
    // in serving, to one tenant request).
    const ResilienceStats &res = result.resilience;
    registry.gauge(prefix + ".retries")
        .set(static_cast<double>(res.pimRetries));
    registry.gauge(prefix + ".rollbacks")
        .set(static_cast<double>(res.rollbacks));
    registry.gauge(prefix + ".gpu_fallbacks")
        .set(static_cast<double>(res.gpuFallbacks));
    registry.gauge(prefix + ".migrations")
        .set(static_cast<double>(res.migrations));
    registry.gauge(prefix + ".unrecovered")
        .set(static_cast<double>(res.unrecovered));
    for (const auto &[category, ns] : result.timeNsByCategory)
        registry.gauge(prefix + ".time_ns." + category).set(ns);
}

} // namespace

void
publishRunMetrics(const RunResult &result, MetricsRegistry &registry)
{
    const ResilienceStats &res = result.resilience;
    const std::pair<const char *, uint64_t> counters[] = {
        {"resilience.faulty_words", res.faultyWords},
        {"resilience.ecc_corrected", res.eccCorrected},
        {"resilience.ecc_uncorrectable", res.eccUncorrectable},
        {"resilience.silent_errors", res.silentErrors},
        {"resilience.pim_retries", res.pimRetries},
        // The GPU-fallback aggregate is published per cause; the sum
        // of the three reproduces the old resilience.gpu_fallbacks.
        {"resilience.gpu_fallbacks.retry_exhausted",
         res.gpuFallbacksRetryExhausted},
        {"resilience.gpu_fallbacks.uncheckpointed",
         res.gpuFallbacksUncheckpointed},
        {"resilience.gpu_fallbacks.capacity_floor",
         res.gpuFallbacksCapacityFloor},
        {"resilience.lane_faults", res.laneFaults},
        {"resilience.retention_faulty_words", res.retentionFaultyWords},
        {"resilience.scrub_passes", res.scrubPasses},
        {"resilience.scrub_corrected", res.scrubCorrected},
        {"resilience.scrub_uncorrectable", res.scrubUncorrectable},
        {"resilience.checksum_checks", res.checksumChecks},
        {"resilience.checksum_mismatches", res.checksumMismatches},
        {"resilience.checkpoints", res.checkpoints},
        {"resilience.rollbacks", res.rollbacks},
        {"resilience.replayed_segments", res.replayedSegments},
        {"resilience.unrecovered", res.unrecovered},
        {"resilience.permanent_faulty_words", res.permanentFaultyWords},
        {"resilience.permanent_lane_faults", res.permanentLaneFaults},
        {"resilience.health_events", res.healthErrorEvents},
        {"resilience.quarantined_banks", res.quarantinedBanks},
        {"resilience.quarantined_lanes", res.quarantinedLanes},
        {"resilience.migrations", res.migrations},
    };
    for (const auto &[name, value] : counters)
        registry.counter(name).add(value);

    registry.counter("run.executions").add();
    publishRunGauges("run.last", result, registry);
}

void
publishRunMetrics(const RunResult &result, uint32_t runId,
                  MetricsRegistry &registry)
{
    publishRunMetrics(result, registry);
    publishRunGauges("run." + std::to_string(runId), result, registry);
}

std::vector<std::pair<std::string, std::string>>
configSummary(const AnaheimConfig &config)
{
    std::vector<std::pair<std::string, std::string>> kv;
    kv.emplace_back("gpu", config.gpu.name);
    kv.emplace_back("gpu_int_tops", formatDouble(config.gpu.intTops));
    kv.emplace_back("gpu_dram_gbs", formatDouble(config.gpu.dramBwGBs));
    kv.emplace_back("library", config.library.name);
    kv.emplace_back("pim_enabled", config.pimEnabled ? "true" : "false");
    kv.emplace_back("pim_variant",
                    config.pim.variant == PimVariant::NearBank
                        ? "near-bank"
                        : "custom-hbm");
    kv.emplace_back("pim_buffer_entries",
                    std::to_string(config.pim.bufferEntries));
    kv.emplace_back("pim_column_partition",
                    config.pim.columnPartition ? "true" : "false");
    kv.emplace_back("ber", formatDouble(config.resilience.ber));
    kv.emplace_back("lane_ber", formatDouble(config.resilience.laneBer));
    kv.emplace_back("ecc_enabled",
                    config.resilience.eccEnabled ? "true" : "false");
    kv.emplace_back("checksum_enabled",
                    config.resilience.checksumEnabled ? "true" : "false");
    kv.emplace_back("scrub_enabled",
                    config.resilience.scrub.enabled ? "true" : "false");
    kv.emplace_back("checkpoint_enabled",
                    config.resilience.checkpoint.enabled ? "true"
                                                         : "false");
    kv.emplace_back("health_enabled",
                    config.resilience.health.enabled ? "true" : "false");
    kv.emplace_back(
        "health_permanent_threshold",
        std::to_string(config.resilience.health.permanentThreshold));
    kv.emplace_back(
        "health_min_capacity_fraction",
        formatDouble(config.resilience.health.minCapacityFraction));
    kv.emplace_back("permanent_bank_rate",
                    formatDouble(config.resilience.permanentBankRate));
    kv.emplace_back(
        "permanent_banks",
        std::to_string(config.resilience.permanentBanks.size()));
    kv.emplace_back(
        "permanent_lanes",
        std::to_string(config.resilience.permanentLanes.size()));
    return kv;
}

void
printAvailability(const RunResult &result, std::FILE *out)
{
    const ResilienceStats &res = result.resilience;
    std::fprintf(out,
                 "  availability: %s (unrecovered events: %" PRIu64
                 ", pim %s)\n",
                 res.unrecovered == 0 ? "OK" : "DEGRADED",
                 res.unrecovered, pimStatusName(result.pimOffline));
    std::fprintf(out,
                 "  capacity: %.4f healthy-bank fraction "
                 "(%" PRIu64 " banks, %" PRIu64 " lanes quarantined, "
                 "%" PRIu64 " migrations)\n",
                 result.pimCapacityFraction, res.quarantinedBanks,
                 res.quarantinedLanes, res.migrations);
    std::fprintf(out,
                 "  escalations: %" PRIu64 " retries, %" PRIu64
                 " rollbacks, gpu fallbacks %" PRIu64
                 " (retry-exhausted %" PRIu64 ", uncheckpointed %" PRIu64
                 ", capacity-floor %" PRIu64 ")\n",
                 res.pimRetries, res.rollbacks, res.gpuFallbacks,
                 res.gpuFallbacksRetryExhausted,
                 res.gpuFallbacksUncheckpointed,
                 res.gpuFallbacksCapacityFloor);
}

} // namespace anaheim::obs
