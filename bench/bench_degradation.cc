/**
 * @file
 * Monte Carlo permanent-fault degradation campaign: availability and
 * throughput vs permanent bank-failure rate.
 *
 * Each campaign cell fixes a per-bank permanent-failure probability,
 * samples `--trials` devices (each trial draws its own failed-bank set
 * from its fault seed), and runs a long chained-HMULT trace through
 * the full escalation ladder — ECC retry, checkpoint rollback/replay,
 * health-monitor quarantine + remap + replay, and GPU redirection once
 * healthy capacity falls under the configured floor. Reported per
 * cell: the mean failed/quarantined bank counts, migrations,
 * availability (the fraction of trials finishing with zero unrecovered
 * corruption), throughput relative to the fault-free run, the ending
 * healthy-capacity fraction, and the per-cause GPU fallback split.
 *
 * Flags (parsed by bench::Flags, bench_util.h):
 *   --rate=X         sweep only this permanent bank-failure rate
 *   --trials=N       Monte Carlo trials per cell (default 5)
 *   --repeats=N      HMULTs chained into the long trace (default 6)
 *   --fault-seed=S   base fault seed (see bench::meanOverTrials)
 *   --smoke          tiny grid / two trials for ctest
 *   --json <path>    machine-readable degradation curve
 *   --trace/--metrics <path>   Perfetto / metrics export
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "anaheim/framework.h"
#include "common/status.h"
#include "obs/report.h"
#include "scenario.h"
#include "sim/fault.h"

using namespace anaheim;

namespace {

struct Options {
    std::vector<double> rates{0.0, 5e-4, 2e-3, 8e-3, 0.6};
    size_t trials = 5;
    size_t repeats = 6;
    uint64_t seed = 0x0ddfa117u;
    bool smoke = false;
};

/** Degradation-campaign resilience policy: everything on. */
AnaheimConfig
campaignConfig(double rate, uint64_t faultSeed)
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    ResilienceConfig &rc = config.resilience;
    // A small transient storage BER keeps the retry path honest next
    // to the permanent faults (quarantine must not trigger on it).
    rc.ber = 1e-7;
    rc.permanentBankRate = rate;
    rc.faultSeed = faultSeed;
    rc.checksumEnabled = true;
    rc.checkpoint.enabled = true;
    rc.checkpoint.intervalSegments = 8;
    rc.checkpoint.maxRollbacks = 32;
    rc.health.enabled = true;
    rc.health.permanentThreshold = 2;
    rc.health.minCapacityFraction = 0.5;
    return config;
}

/** One trial: a device drawn at `rate` from `seed` runs the chain. */
bench::Row
runTrial(double rate, uint64_t seed, const OpSequence &seq,
         const RunResult &base)
{
    const AnaheimConfig config = campaignConfig(rate, seed);

    // The trial's device: count its failed banks directly from the
    // fault model (the run only reports what it quarantined).
    const size_t failed =
        FaultModel(config.resilience)
            .samplePermanentBanks(config.pim.dieGroups,
                                  config.pim.banksPerDieGroup)
            .size();

    const RunResult run = AnaheimFramework(config).execute(seq);
    const ResilienceStats &r = run.resilience;
    return {failed, r.quarantinedBanks, r.migrations, r.rollbacks,
            r.unrecovered == 0 ? 1.0 : 0.0, run.pimCapacityFraction,
            base.totalNs / run.totalNs,
            run.pimOffline != PimOffline::Online ? 1.0 : 0.0,
            r.gpuFallbacksRetryExhausted, r.gpuFallbacksUncheckpointed,
            r.gpuFallbacksCapacityFloor};
}

} // namespace

static int
run(int argc, char **argv)
{
    Options opts;
    bench::Flags flags("bench_degradation", argc, argv);
    if ((opts.smoke = flags.smoke())) {
        // One clean cell, one quarantine cell, one floor cell.
        opts.rates = {0.0, 2e-3, 0.6};
        opts.trials = 2;
        opts.repeats = 3;
    }
    flags.only("--rate", opts.rates);
    flags.count("--trials", opts.trials);
    flags.count("--repeats", opts.repeats);
    flags.seed("--fault-seed", opts.seed);
    bench::JsonScope json(opts.smoke ? "degradation_smoke"
                                     : "degradation",
                          flags);
    json.report().metric("smoke", opts.smoke ? "yes" : "no");
    json.report().metric("trials", static_cast<double>(opts.trials));
    json.report().metric("repeats", static_cast<double>(opts.repeats));
    json.report().metric("fault_seed", static_cast<double>(opts.seed));
    bench::reportConfig(json.report(), campaignConfig(0.0, opts.seed));

    const OpSequence seq = bench::hmultChain(opts.repeats);
    // Healthy-device baseline under the same resilience policy, so
    // the throughput column isolates degradation (not the checkpoint /
    // checksum overhead, which bench_fault_campaign already reports).
    const RunResult base =
        AnaheimFramework(campaignConfig(0.0, opts.seed)).execute(seq);

    bench::header(
        "Permanent-fault degradation campaign (" +
        std::to_string(opts.repeats) + " chained HMULTs, " +
        std::to_string(opts.trials) +
        " trials/cell; ECC + checksums + checkpoint + health on)");

    bench::Table table(json.report(), {
        {"permanent_bank_rate", "rate", "%-10.1e"},
        {"failed_banks", "failed", "%8.1f"},
        {"quarantined_banks", "quarant", "%8.1f"},
        {"migrations", "migr", "%7.1f"},
        {"rollbacks", "rbacks", "%7.1f"},
        {"availability", "avail", "%6.0f%%", 100.0},
        {"capacity_fraction", "capacity", "%9.4f"},
        {"throughput_vs_healthy", "thruput", "%8.3fx"},
        {"pim_offline_rate", "offline", "%7.0f%%", 100.0},
        {"gpu_fallbacks_retry_exhausted"}, {"gpu_fallbacks_uncheckpointed"},
        {"gpu_fallbacks_capacity_floor", "fb-floor", "%9.1f"},
    });
    for (const double rate : opts.rates) {
        table.row(bench::meanOverTrials(
            {rate}, opts.trials, opts.seed, [&](uint64_t seed) {
                return runTrial(rate, seed, seq, base);
            }));
    }

    // End-of-run availability report for one representative trial of
    // the most degraded cell (also exercises the obs helper).
    const double worst = opts.rates.back();
    const RunResult sample =
        AnaheimFramework(campaignConfig(worst, opts.seed)).execute(seq);
    std::printf("\nAvailability report (rate %.1e, seed trial 0):\n",
                worst);
    obs::printAvailability(sample);

    bench::note("availability = fraction of trials finishing with zero "
                "unrecovered corruption; quarantine+remap keeps the "
                "device available until the healthy-bank capacity floor "
                "(0.5), past which PIM segments redirect to the GPU "
                "(fb-floor)");
    return 0;
}

int
main(int argc, char **argv)
{
    return runGuardedMain("bench_degradation",
                          [&] { return run(argc, argv); });
}
