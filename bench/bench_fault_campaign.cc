/**
 * @file
 * Monte Carlo fault-injection campaign over the detect-and-recover
 * stack: raw fault rate x scrub interval x checkpoint interval.
 *
 * Each campaign cell runs a long HMULT chain (the worst case for
 * all-or-nothing recovery) through the full framework several times
 * with different fault seeds, with all three fault sites live (storage
 * BER, MMAC lane flips, retention decay) and ciphertext checksums on.
 * Reported per cell: mean recovery activity (scrubs, checkpoints,
 * rollbacks, replayed segments), the unrecovered-corruption rate
 * across trials, and the time/energy overhead relative to the
 * fault-free run. The interesting trade-off is visible directly:
 * tighter scrub/checkpoint intervals buy a lower unrecovered rate at a
 * higher standing overhead.
 *
 * Flags (parsed by bench::Flags, bench_util.h):
 *   --ber=X          sweep only this raw fault rate
 *   --trials=N       Monte Carlo trials per cell (default 5)
 *   --repeats=N      HMULTs chained into the long trace (default 8)
 *   --fault-seed=S   base fault seed (see bench::meanOverTrials)
 *   --smoke          tiny grid / two trials for ctest
 *   --json <path>    machine-readable resilience curve
 */

#include <cstdint>
#include <string>
#include <vector>

#include "anaheim/framework.h"
#include "common/status.h"
#include "scenario.h"

using namespace anaheim;

namespace {

struct Options {
    std::vector<double> bers{1e-6, 1e-5, 1e-4};
    size_t trials = 5;
    size_t repeats = 8;
    uint64_t seed = 0x0ddfa117u;
    bool smoke = false;
};

/** One trial of a campaign cell (fault rate, scrub interval, checkpoint
 *  interval), checksums always on. scrubNs == 0 disables scrubbing;
 *  ckptSegments == 0 disables checkpointing (detection still runs, but
 *  recovery degrades to GPU fallback / unrecovered). */
bench::Row
runTrial(double ber, double scrubNs, size_t ckptSegments, uint64_t seed,
         const OpSequence &seq, const RunResult &base)
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    ResilienceConfig &rc = config.resilience;
    // All three fault sites scale with the cell's raw rate. The lane
    // datapath sees ~10^7 multiplies per segment with no ECC, so its
    // per-op rate sits far below the storage BER (as it does
    // physically: logic upsets are much rarer than cell upsets);
    // retention decays more slowly than reads upset.
    rc.ber = ber;
    rc.laneBer = ber * 1e-5;
    rc.retentionBerPerWindow = ber * 1e-2;
    rc.faultSeed = seed;
    rc.checksumEnabled = true;
    rc.scrub.enabled = scrubNs > 0.0;
    if (rc.scrub.enabled)
        rc.scrub.intervalNs = scrubNs;
    rc.checkpoint.enabled = ckptSegments > 0;
    if (rc.checkpoint.enabled) {
        rc.checkpoint.intervalSegments = ckptSegments;
        // Long chains need a deeper replay budget than the
        // single-workload default.
        rc.checkpoint.maxRollbacks = 32;
    }

    const RunResult run = AnaheimFramework(config).execute(seq);
    const ResilienceStats &r = run.resilience;
    return {r.scrubPasses, r.scrubCorrected, r.checkpoints, r.rollbacks,
            r.replayedSegments, r.checksumMismatches, r.gpuFallbacks,
            r.unrecovered > 0 ? 1.0 : 0.0,
            100.0 * (run.totalNs - base.totalNs) / base.totalNs,
            100.0 * (run.energyPj - base.energyPj) / base.energyPj};
}

} // namespace

static int
run(int argc, char **argv)
{
    Options opts;
    bench::Flags flags("bench_fault_campaign", argc, argv);
    if ((opts.smoke = flags.smoke())) {
        opts.bers = {1e-5};
        opts.trials = 2;
        opts.repeats = 4;
    }
    flags.only("--ber", opts.bers);
    flags.count("--trials", opts.trials);
    flags.count("--repeats", opts.repeats);
    flags.seed("--fault-seed", opts.seed);
    bench::JsonScope json(opts.smoke ? "fault_campaign_smoke"
                                     : "fault_campaign",
                          flags);
    json.report().metric("smoke", opts.smoke ? "yes" : "no");
    json.report().metric("trials", static_cast<double>(opts.trials));
    json.report().metric("repeats", static_cast<double>(opts.repeats));
    json.report().metric("fault_seed", static_cast<double>(opts.seed));
    bench::reportConfig(json.report(), AnaheimConfig::a100NearBank());

    const OpSequence seq = bench::hmultChain(opts.repeats);
    const RunResult base =
        AnaheimFramework(AnaheimConfig::a100NearBank()).execute(seq);

    bench::header(
        "Fault campaign: rate x scrub interval x checkpoint interval (" +
        std::to_string(opts.repeats) + " chained HMULTs, " +
        std::to_string(opts.trials) + " trials/cell, checksums on)");

    std::vector<double> scrubIntervals{0.0, 50.0e3, 200.0e3};
    std::vector<size_t> ckptIntervals{0, 8, 32};
    if (opts.smoke) {
        scrubIntervals = {0.0, 50.0e3};
        ckptIntervals = {0, 8};
    }

    bench::Table table(json.report(), {
        {"ber", "rate", "%-10.1e"},
        {"scrub_interval_ns", "scrub-ns", "%-9.0f"},
        {"checkpoint_interval_segments", "ckpt", "%-6.0f"},
        {"scrub_passes", "scrubs", "%7.1f"},
        {"scrub_corrected"},
        {"checkpoints", "ckpts", "%7.1f"},
        {"rollbacks", "rbacks", "%7.1f"},
        {"replayed_segments", "replayed", "%9.1f"},
        {"checksum_mismatches", "mismat", "%8.1f"},
        {"gpu_fallbacks"},
        {"unrecovered_rate", "unrec", "%7.0f%%", 100.0},
        {"time_overhead_pct", "time-ovhd", "%9.2f%%"},
        {"energy_overhead_pct", "en-ovhd", "%9.2f%%"},
    });
    for (const double ber : opts.bers) {
        for (const double scrubNs : scrubIntervals) {
            for (const size_t ckpt : ckptIntervals) {
                table.row(bench::meanOverTrials(
                    {ber, scrubNs, ckpt}, opts.trials, opts.seed,
                    [&](uint64_t seed) {
                        return runTrial(ber, scrubNs, ckpt, seed, seq, base);
                    }));
            }
        }
    }
    bench::note("ckpt = 0: detection without checkpointing — "
                "uncorrectable events fall back to the GPU and checksum "
                "mismatches go unrecovered; nonzero ckpt converts both "
                "into bounded rollback replays");
    return 0;
}

int
main(int argc, char **argv)
{
    // Out-of-range rates raise AnaheimError from the fault-model /
    // scrubber validation; report them cleanly instead of aborting.
    return runGuardedMain("bench_fault_campaign",
                          [&] { return run(argc, argv); });
}
