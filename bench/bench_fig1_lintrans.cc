/**
 * Fig. 1 (table): evk / plaintext footprints, (I)NTT op counts and
 * cache requirements for a collection of linear transforms
 * (CoeffToSlot) under Base / Hoisting / MinKS.
 */

#include <cstdio>

#include "bench_util.h"
#include "common/units.h"
#include "trace/counting.h"

using namespace anaheim;

static int
run(bench::JsonReport &report)
{
    bench::header("Fig. 1 table — linear-transform algorithm comparison "
                  "(CoeffToSlot, D=4, K=8 per transform)");

    const TraceParams params; // N=2^16, L=54, alpha=14
    auto costs = [&](TraceLtAlgorithm algorithm) {
        // CoeffToSlot at fftIter ~ 4: four transforms of K = 8.
        return analyzeLinearTransforms(params, 4, 8, algorithm);
    };
    const LinTransCosts base = costs(TraceLtAlgorithm::Base);
    const LinTransCosts hoisting = costs(TraceLtAlgorithm::Hoisting);

    bench::Table table(report, {
        {"algorithm", "Algorithm", "%-9s"},
        {"evk_bytes", "evk", "%9.2fGB", 1.0 / kGiB},
        {"plaintext_bytes", "plaintext", "%10.2fMB", 1.0 / kMiB},
        {"ntt_ops", "(I)NTT ops", "%11.0f"},
        {"cache_bytes", "cache", "%10.2fMB", 1.0 / kMiB},
        {"ntt_reduction_vs_base", "NTT vs Base", "%11.2fx"},
        {"evk_reduction_vs_hoisting", "evk vs Hoist", "%12.2fx"},
    });
    const struct {
        const char *name;
        TraceLtAlgorithm algorithm;
    } rows[] = {
        {"Base", TraceLtAlgorithm::Base},
        {"Hoisting", TraceLtAlgorithm::Hoisting},
        {"MinKS", TraceLtAlgorithm::MinKS},
    };
    for (const auto &row : rows) {
        const LinTransCosts c = costs(row.algorithm);
        table.row({row.name, c.evkBytes, c.plaintextBytes, c.nttOps,
                   c.cacheBytes, base.nttOps / c.nttOps,
                   hoisting.evkBytes / c.evkBytes});
    }
    std::printf("\n");
    bench::note("paper: hoisting cuts (I)NTT ops ~2.47x vs Base; "
                "MinKS needs ~4x fewer evks but ~217MB of cache");
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::runBench("fig1_lintrans", argc, argv, run);
}
