/**
 * @file
 * Host-side limb-parallel scaling: wall-clock time and speedup of the
 * parallelFor-threaded hot paths (multi-limb NTT, BConv and hybrid
 * keyswitch) at 1/2/4/8 threads.
 *
 * Also verifies the engine's determinism guarantee end to end: the
 * output at every thread count is compared bitwise against the
 * single-thread run. Speedups depend on the machine's core count —
 * on a single-core host all configurations legitimately report ~1x.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "ckks/keys.h"
#include "ckks/keyswitch.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "math/kernels.h"
#include "poly/polynomial.h"
#include "rns/bconv.h"

namespace anaheim {
namespace {

/** Best-of-3 wall time of fn(), in milliseconds. */
template <typename Fn>
double
bestMs(Fn &&fn)
{
    return bench::bestOfNs(3, fn) * 1e-6;
}

Polynomial
randomPolynomial(const RnsBasis &basis, uint64_t seed, Domain domain)
{
    Rng rng(seed);
    Polynomial p(basis, domain);
    for (size_t i = 0; i < basis.size(); ++i)
        p.limb(i) = sampleUniform(rng, basis.degree(), basis.prime(i));
    return p;
}

struct OpResult {
    double ms = 0.0;
    bool identical = true; // vs the 1-thread reference output
};

struct OpRow {
    std::string name;
    std::vector<OpResult> results; // one per thread configuration
};

} // namespace
} // namespace anaheim

static int
run(anaheim::bench::JsonReport &report)
{
    using namespace anaheim;

    // Headline numbers depend on which NTT kernel backend dispatch
    // resolved to; stamp it into the JSON so cross-machine trend
    // comparisons do not mix SIMD tiers.
    const char *backend = kernels::backendName(kernels::activeBackend());
    report.metric("backend", backend);
    bench::header("Parallel scaling of host CKKS hot paths "
                  "(N = 2^14, L = 8)");
    bench::note("best-of-3 wall time; speedup relative to 1 thread; "
                "outputs checked bitwise against the 1-thread run");
    std::printf("  hardware threads available: %zu\n", defaultThreadCount());
    std::printf("  ntt kernel backend: %s\n\n", backend);

    const std::vector<size_t> threadCounts = {1, 2, 4, 8};

    // Shared setup (thread count does not affect any of this).
    const size_t n = size_t{1} << 14;
    const CkksContext context(CkksParams::testParams(n, 8, 2));
    const auto nttInput = randomPolynomial(context.qBasis(), 42,
                                           Domain::Coeff);
    const BasisConverter bconv(context.qBasis(), context.pBasis());
    Rng rng(7);
    std::vector<CoeffVector> bconvInput(context.qBasis().size());
    for (size_t i = 0; i < bconvInput.size(); ++i) {
        bconvInput[i] = sampleUniform(rng, n, context.qBasis().prime(i));
    }
    KeyGenerator keygen(context, 7);
    const EvalKey evk = keygen.makeRelinKey();
    const KeySwitcher switcher(context);
    const auto ksInput = randomPolynomial(context.qBasis(), 43,
                                          Domain::Eval);

    std::vector<OpRow> rows(3);
    rows[0].name = "NTT (toEval, 8 limbs)";
    rows[1].name = "BConv (8 -> 2 limbs)";
    rows[2].name = "keyswitch (hybrid)";

    // 1-thread reference outputs for the bitwise-identity check.
    Polynomial nttRef;
    std::vector<CoeffVector> bconvRef;
    Polynomial ksRef0, ksRef1;

    for (size_t cfg = 0; cfg < threadCounts.size(); ++cfg) {
        setParallelThreads(threadCounts[cfg]);

        Polynomial nttOut;
        rows[0].results.push_back({bestMs([&] {
                                       nttOut = nttInput;
                                       nttOut.toEval();
                                   }),
                                   true});

        std::vector<CoeffVector> bconvOut;
        rows[1].results.push_back(
            {bestMs([&] { bconvOut = bconv.convert(bconvInput); }), true});

        std::pair<Polynomial, Polynomial> ksOut;
        rows[2].results.push_back(
            {bestMs([&] { ksOut = switcher.keySwitch(ksInput, evk); }),
             true});

        if (cfg == 0) {
            nttRef = nttOut;
            bconvRef = bconvOut;
            ksRef0 = ksOut.first;
            ksRef1 = ksOut.second;
        } else {
            rows[0].results[cfg].identical = nttOut == nttRef;
            rows[1].results[cfg].identical = bconvOut == bconvRef;
            rows[2].results[cfg].identical =
                ksOut.first == ksRef0 && ksOut.second == ksRef1;
        }
    }
    setParallelThreads(defaultThreadCount());

    bench::Table table(report, {
        {"op", "op", "%-22s"},
        {"threads", "threads", "%7.0f"},
        {"ms", "ms", "%8.2f"},
        {"speedup", "speedup", "%6.2fx"},
        {"identical", "identical", "%s"},
    });
    for (const auto &row : rows) {
        for (size_t cfg = 0; cfg < threadCounts.size(); ++cfg) {
            const OpResult &r = row.results[cfg];
            table.row({row.name.c_str(), threadCounts[cfg], r.ms,
                       row.results.front().ms / r.ms,
                       r.identical ? "yes" : "no"});
        }
    }
    bench::note("");
    bench::note("limb partitioning only — no accumulation-order "
                "changes, so 'identical' must read yes everywhere");
    return 0;
}

int
main(int argc, char **argv)
{
    return anaheim::bench::runBench("parallel_scaling", argc, argv, run);
}
