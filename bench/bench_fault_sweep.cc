/**
 * @file
 * BER sweep of the PIM resilience layer, ECC on vs off.
 *
 * Part 1 drives the functional unit's word-read path directly: a
 * PMULT-sized multiply at each BER, counting faulty/corrected/
 * uncorrectable/silent words and comparing against the fault-free
 * golden output (exact-output rate is the headline).
 *
 * Part 2 runs the HMULT trace through the full framework and reports
 * the recovery machinery's cost: retries, GPU fallbacks, and the
 * time/energy overhead relative to the fault-free run.
 *
 * Flags (parsed by bench::Flags, bench_util.h):
 *   --ber=X         sweep only this raw bit-error rate
 *   --fault-seed=S  fault-site seed (identical seeds => identical runs)
 *   --ecc=on|off    restrict to one ECC setting (default: both)
 *   --smoke         small vectors / short sweep for ctest
 *   --json <path>   machine-readable sweep
 */

#include <cstdint>
#include <string>
#include <vector>

#include "anaheim/framework.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "math/primes.h"
#include "pim/functional.h"
#include "sim/readpath.h"
#include "trace/builders.h"

using namespace anaheim;

namespace {

struct Options {
    std::vector<double> bers{1e-7, 1e-6, 1e-5, 1e-4, 1e-3};
    uint64_t seed = 0x0ddfa117u;
    std::vector<bool> eccs{true, false}; ///< --ecc keeps one
    size_t words = 1u << 16;
    bool smoke = false;
};

void
functionalSweep(const Options &opts, bench::JsonReport &report)
{
    bench::header("Functional PIM read path: word outcomes per BER "
                  "(SEC-DED (39,32), " +
                  std::to_string(opts.words) + " words/operand)");

    const uint64_t q = generateNttPrimes(1024, 28, 1)[0];
    PimFunctionalUnit unit(q);
    Rng rng(7);
    PimVector a(opts.words), b(opts.words);
    for (auto &w : a)
        w = static_cast<uint32_t>(rng.uniform(q));
    for (auto &w : b)
        w = static_cast<uint32_t>(rng.uniform(q));
    const PimVector golden = unit.mult(a, b);

    bench::Table table(report, {
        {"sweep"},
        {"ber", "BER", "%-10.1e"},
        {"ecc", "ECC", "%-4s"},
        {"words_read", "words", "%12.0f"},
        {"faulty_words", "faulty", "%10.0f"},
        {"corrected", "corrected", "%10.0f"},
        {"uncorrectable", "uncorr", "%8.0f"},
        {"silent", "silent", "%8.0f"},
        {"output_errors", "out-errors", "%11.0f"},
    });
    for (const double ber : opts.bers) {
        for (const bool ecc : opts.eccs) {
            FaultConfig faults;
            faults.ber = ber;
            faults.faultSeed = opts.seed;
            PimDataPath path(faults, ecc);
            unit.attachReadPath(&path);
            const PimVector out = unit.mult(a, b);
            unit.attachReadPath(nullptr);

            size_t outputErrors = 0;
            for (size_t i = 0; i < out.size(); ++i)
                outputErrors += out[i] != golden[i];
            const auto &c = path.counters();
            table.row({"functional", ber, ecc ? "on" : "off", c.wordsRead,
                       c.faultyWords, c.corrected, c.uncorrectable, c.silent,
                       outputErrors});
        }
    }
    bench::note("with ECC on, every single-bit upset is repaired in "
                "place: out-errors stays 0 until double-bit events "
                "appear (~BER^2 per 39-bit word)");
}

void
frameworkSweep(const Options &opts, bench::JsonReport &report)
{
    bench::header("Framework HMULT under faults: retry/fallback cost "
                  "per BER (A100 near-bank PIM)");

    const OpSequence seq = buildHMult(TraceParams{});
    const RunResult base =
        AnaheimFramework(AnaheimConfig::a100NearBank()).execute(seq);

    bench::Table table(report, {
        {"sweep"},
        {"ber", "BER", "%-10.1e"},
        {"ecc", "ECC", "%-4s"},
        {"faulty_words"},
        {"ecc_corrected", "corrected", "%10.0f"},
        {"ecc_uncorrectable", "uncorr", "%10.0f"},
        {"silent_errors", "silent", "%10.0f"},
        {"pim_retries", "retries", "%8.0f"},
        {"gpu_fallbacks", "fallbacks", "%10.0f"},
        {"time_overhead_pct", "time-ovhd", "%9.2f%%"},
        {"energy_overhead_pct", "energy-ovhd", "%9.2f%%"},
    });
    for (const double ber : opts.bers) {
        for (const bool ecc : opts.eccs) {
            AnaheimConfig config = AnaheimConfig::a100NearBank();
            config.resilience.ber = ber;
            config.resilience.faultSeed = opts.seed;
            config.resilience.eccEnabled = ecc;
            const RunResult run = AnaheimFramework(config).execute(seq);
            const auto &r = run.resilience;
            table.row({"framework", ber, ecc ? "on" : "off", r.faultyWords,
                       r.eccCorrected, r.eccUncorrectable, r.silentErrors,
                       r.pimRetries, r.gpuFallbacks,
                       100.0 * (run.totalNs - base.totalNs) / base.totalNs,
                       100.0 * (run.energyPj - base.energyPj) /
                           base.energyPj});
        }
    }
    bench::note("ECC off never detects, so timing matches the clean run "
                "and all faults land as silent errors; ECC on pays "
                "replays, then a GPU fallback once the retry budget "
                "(default 2) is spent");
}

} // namespace

int
main(int argc, char **argv)
{
    // An out-of-range --ber / --fault-seed raises AnaheimError from the
    // fault-model validation; report it cleanly instead of aborting.
    return runGuardedMain("bench_fault_sweep", [&] {
        Options opts;
        bench::Flags flags("bench_fault_sweep", argc, argv);
        if ((opts.smoke = flags.smoke())) {
            opts.bers = {1e-4};
            opts.words = 1u << 12;
        }
        flags.only("--ber", opts.bers);
        flags.seed("--fault-seed", opts.seed);
        flags.read("--ecc", "on or off", [&](const std::string &value) {
            opts.eccs = {value == "on"};
            return value == "on" || value == "off";
        });
        bench::JsonScope json("fault_sweep", flags);
        json.report().metric("smoke", opts.smoke ? "yes" : "no");
        json.report().metric("fault_seed", static_cast<double>(opts.seed));
        functionalSweep(opts, json.report());
        frameworkSweep(opts, json.report());
        if (opts.smoke)
            bench::note("smoke mode: reduced vector sizes and BER list");
        return 0;
    });
}
