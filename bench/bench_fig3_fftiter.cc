/**
 * Fig. 3: T_boot,eff breakdown as fftIter varies — more/sparser DFT
 * factors reduce per-boot element-wise work but cost levels (lower
 * L_eff), degrading T_boot,eff beyond fftIter = 4.
 */

#include <cstdio>

#include "anaheim/framework.h"
#include "bench_util.h"
#include "trace/builders.h"

using namespace anaheim;

namespace {

void
sweep(bench::Table &table, const AnaheimConfig &base, const char *gpuName)
{
    const TraceParams params;
    AnaheimConfig config = base;
    config.pimEnabled = false;
    for (double fftIter : {3.0, 3.5, 4.0, 5.0, 6.0}) {
        const auto result = AnaheimFramework(config).execute(
            buildBootstrap(params, fftIter, TraceLtAlgorithm::Hoisting));
        const double leff = bootstrapLevelsEff(params, fftIter);
        const double ew = bench::categoryMs(result, "ElementWise");
        const double totalMs = result.totalNs * 1e-6;
        table.row({gpuName, fftIter, leff, ew, totalMs,
                   100.0 * ew / totalMs, totalMs / leff});
    }
}

} // namespace

static int
run(bench::JsonReport &report)
{
    bench::header("Fig. 3 — T_boot,eff vs fftIter (hoisting, no PIM)");
    bench::Table table(report, {
        {"gpu", "GPU", "%-9s"},
        {"fft_iter", "fftIter", "%7.1f"},
        {"levels_eff", "L_eff", "%5.1f"},
        {"ew_ms", "EW ms", "%8.2f"},
        {"total_ms", "total ms", "%8.2f"},
        {"ew_pct", "EW share", "%7.1f%%"},
        {"tboot_eff_ms", "T_boot,eff", "%8.2fms"},
    });
    sweep(table, AnaheimConfig::a100NearBank(), "A100 80GB");
    sweep(table, AnaheimConfig::rtx4090NearBank(), "RTX 4090");
    std::printf("\n");
    bench::note("paper: the fftIter 3/4 mix is best; fftIter > 4 "
                "degrades T_boot,eff because L_eff drops faster than "
                "the element-wise share");
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::runBench("fig3_fftiter", argc, argv, run);
}
