/**
 * @file
 * NTT kernel microbenchmark: division-based reference butterflies vs the
 * Harvey/Shoup lazy-reduction kernels, at N = 2^12 .. 2^16.
 *
 * Reports ns per butterfly (a transform is N/2 * log2 N butterflies) and
 * full-transform throughput for both directions, plus the speedup of the
 * lazy path — the acceptance gate for the kernel rewrite is >= 2x on the
 * full forward transform at N = 2^16. Before timing, the two paths are
 * cross-checked bitwise on the same input.
 *
 * `--json <path>` writes the rows machine-readably (BENCH_ntt.json is
 * one such run, checked by scripts/validate_bench.py).
 */

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "math/kernels.h"
#include "math/ntt.h"
#include "math/primes.h"

namespace anaheim {
namespace {

struct KernelTiming {
    double nsPerTransform = 0.0;
    double nsPerButterfly = 0.0;
    double transformsPerSec = 0.0;
};

KernelTiming
time_kernel(const std::function<void(uint64_t *)> &kernel,
            CoeffVector data, size_t n, size_t reps)
{
    // Transforms run in place, repeatedly: outputs are canonical
    // residues, which are valid inputs again, so both paths execute the
    // identical instruction mix with no copy overhead in the loop.
    KernelTiming t;
    const double ns = bench::bestOfNs(3, [&] {
        for (size_t r = 0; r < reps; ++r)
            kernel(data.data());
    });
    const double butterflies =
        0.5 * static_cast<double>(n) * std::log2(static_cast<double>(n));
    t.nsPerTransform = ns / static_cast<double>(reps);
    t.nsPerButterfly = t.nsPerTransform / butterflies;
    t.transformsPerSec = 1e9 / t.nsPerTransform;
    return t;
}

} // namespace
} // namespace anaheim

static int
run(anaheim::bench::JsonReport &report)
{
    using namespace anaheim;

    bench::header("NTT kernels: Harvey/Shoup lazy reduction vs "
                  "division-based reference");
    bench::note("40-bit NTT primes; best-of-3; a transform is "
                "N/2*log2(N) butterflies; fwd x = reference time / "
                "kernel time");
    report.metric("prime_bits", 40);

    bench::Table results(report, {
        {"logn", "logN", "%4.0f"},
        {"n"},
        {"q"},
        {"backend", "kernel", "%-9s"},
        {"fwd_ns_per_butterfly", "fwd ns/bfly", "%11.2f"},
        {"inv_ns_per_butterfly", "inv ns/bfly", "%11.2f"},
        {"fwd_transforms_per_sec", "fwd xforms/s", "%12.0f"},
        {"fwd_speedup", "fwd x", "%6.2fx"},
    });
    bool identical = true;
    double speedupAt64k = 0.0;
    std::string bestBackend = "none";
    for (size_t logN = 12; logN <= 16; ++logN) {
        const size_t n = size_t{1} << logN;
        const uint64_t q = generateNttPrimes(n, 40, 1)[0];
        const auto table = NttTable::shared(q, n);
        Rng rng(logN);
        const auto input = sampleUniform(rng, n, q);

        const size_t reps = std::max<size_t>(1, (size_t{1} << 22) / n);
        const auto refFwd = time_kernel(
            [&](uint64_t *d) { table->forwardReference(d); }, input, n,
            reps);
        const auto refInv = time_kernel(
            [&](uint64_t *d) { table->inverseReference(d); }, input, n,
            reps);
        results.row({logN, n, q, "reference", refFwd.nsPerButterfly,
                     refInv.nsPerButterfly, refFwd.transformsPerSec, 1.0});

        // One timed row per compiled-and-runnable lazy backend, pinned
        // programmatically; the widest (last) one is what CPUID
        // dispatch picks by default.
        for (const kernels::KernelOps *ops : kernels::compiledBackends()) {
            if (!kernels::cpuSupports(ops->backend))
                continue;
            kernels::setBackend(ops->backend);

            // Bitwise cross-check before timing, both directions.
            {
                auto lazy = input, ref = input;
                table->forwardLazy(lazy.data());
                table->forwardReference(ref.data());
                identical = identical && lazy == ref;
                table->inverseLazy(lazy.data());
                table->inverseReference(ref.data());
                identical = identical && lazy == ref;
            }

            const auto lazyFwd = time_kernel(
                [&](uint64_t *d) { table->forwardLazy(d); }, input, n,
                reps);
            const auto lazyInv = time_kernel(
                [&](uint64_t *d) { table->inverseLazy(d); }, input, n,
                reps);
            const double fwdSpeedup =
                refFwd.nsPerTransform / lazyFwd.nsPerTransform;
            if (logN == 16 && fwdSpeedup > speedupAt64k) {
                speedupAt64k = fwdSpeedup;
                bestBackend = ops->name;
            }
            results.row({logN, n, q, ops->name, lazyFwd.nsPerButterfly,
                         lazyInv.nsPerButterfly, lazyFwd.transformsPerSec,
                         fwdSpeedup});
        }
        kernels::resetBackend();
    }

    bench::note("");
    bench::note(std::string("lazy output bitwise identical to "
                            "reference: ") +
                (identical ? "yes" : "NO"));
    bench::note("fastest forward backend at N=2^16: " + bestBackend +
                " (acceptance gate: fwd x >= 2)");
    report.metric("bitwise_identical", identical ? "yes" : "no");
    report.metric("fwd_speedup_at_2e16", speedupAt64k);
    report.metric("best_backend", bestBackend);
    return identical ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return anaheim::bench::runBench("ntt_kernels", argc, argv, run);
}
