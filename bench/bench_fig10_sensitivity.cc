/**
 * Fig. 10: sensitivity of the algorithmic contributions — incremental
 * kernel fusion on the GPU baseline (+BasicFuse) and on Anaheim
 * (+BasicFuse, +AutFuse), plus the column-partitioning data layout
 * ablation (w/o CP). The paper's +ExtraFuse (GPU) step is not modelled
 * (EXPERIMENTS.md, known deviation 5).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "anaheim/framework.h"
#include "bench_util.h"
#include "trace/builders.h"

using namespace anaheim;

namespace {

double
elementWiseMs(const RunResult &result)
{
    return bench::categoryMs(result, "ElementWise") +
           bench::categoryMs(result, "PIM");
}

OpSequence
boot(bool basicFuse, bool autFuse)
{
    TraceOptions options;
    options.basicFuse = basicFuse;
    options.autFuse = autFuse;
    return buildBootstrap(TraceParams{}, 3.5, TraceLtAlgorithm::Hoisting,
                          options);
}

/** The two fusion ladders of one GPU into `ladder`, then its
 *  column-partitioning ablation and §V-C pipelining bound into
 *  `layout`: with perfect GPU/PIM overlap the critical path is
 *  max(GPU time, PIM time). */
void
sweep(bench::Table &ladder, std::vector<bench::Row> &layout,
      const AnaheimConfig &gpuConfig, const char *gpuName)
{
    double prev = 0.0;
    // Each step's speedup is over the step before it in its arm (1
    // for an arm's first step).
    auto step = [&](const char *label, const AnaheimConfig &config,
                    const OpSequence &seq) {
        const auto result = AnaheimFramework(config).execute(seq);
        const double total = result.totalNs * 1e-6;
        ladder.row({gpuName, label, total, elementWiseMs(result),
                    prev > 0.0 ? prev / total : 1.0});
        prev = total;
        return result;
    };

    AnaheimConfig base = gpuConfig;
    base.pimEnabled = false;
    step("Base (GPU)", base, boot(false, false));
    step("+BasicFuse (GPU)", base, boot(true, false));

    AnaheimConfig pim = gpuConfig;
    pim.pimEnabled = true;
    prev = 0.0;
    step("PIM-Base", pim, boot(false, false));
    step("PIM +BasicFuse", pim, boot(true, false));
    const auto withCp = step("PIM +AutFuse", pim, boot(true, true));

    AnaheimConfig noCp = pim;
    noCp.pim.columnPartition = false;
    const auto withoutCp = AnaheimFramework(noCp).execute(boot(true, true));
    const double totalMs = withCp.totalNs * 1e-6;
    const double pimMs = bench::categoryMs(withCp, "PIM");
    const double pipelined = std::max(totalMs - pimMs, pimMs);
    layout.push_back({gpuName, withoutCp.totalNs * 1e-6,
                      elementWiseMs(withoutCp),
                      elementWiseMs(withoutCp) / elementWiseMs(withCp),
                      pipelined, 100.0 * (totalMs - pipelined) / totalMs});
}

} // namespace

static int
run(bench::JsonReport &report)
{
    bench::header("Fig. 10 — fusion and data-layout sensitivity "
                  "(bootstrapping)");
    bench::reportConfig(report, AnaheimConfig::a100NearBank());
    bench::Table ladder(report, {
        {"gpu", "GPU", "%-18s"},
        {"step", "Configuration", "%-16s"},
        {"total_ms", "total ms", "%8.2f"},
        {"ew_pim_ms", "EW/PIM ms", "%9.2f"},
        {"speedup_vs_prev", "vs prev", "%6.2fx"},
    });
    std::vector<bench::Row> layoutRows;
    sweep(ladder, layoutRows, AnaheimConfig::a100NearBank(),
          "A100 near-bank");
    sweep(ladder, layoutRows, AnaheimConfig::rtx4090NearBank(),
          "RTX 4090 near-bank");

    std::printf("\nPIM +AutFuse without the column-partitioned layout, and "
                "under ideal GPU/PIM pipelining:\n");
    bench::Table layout(report, {
        {"gpu", "GPU", "%-18s"},
        {"no_cp_total_ms", "w/o CP ms", "%9.2f"},
        {"no_cp_ew_pim_ms", "EW/PIM ms", "%9.2f"},
        {"no_cp_ew_slowdown", "EW slowdown", "%10.2fx"},
        {"pipelined_ms", "pipelined ms", "%12.2f"},
        {"pipeline_headroom_pct", "headroom", "%7.1f%%"},
    });
    for (const bench::Row &row : layoutRows)
        layout.row(row);
    std::printf("\n");
    bench::note("paper: fusions cut element-wise time 27-37% on the "
                "GPU and 40-57% on Anaheim (A100); AutFuse adds "
                "1.01-1.09x; w/o CP the element-wise time is 2.24x "
                "(A100) / 2.11x (4090) slower, nullifying the gains");
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::runBench("fig10_sensitivity", argc, argv, run);
}
