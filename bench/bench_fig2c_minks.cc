/**
 * Fig. 2c: T_boot,eff breakdown for D=4 under MinKS / Hoisting / Base
 * on A100 80GB — showing why GPUs choose hoisting (§III-C) and how
 * hoisting inflates the element-wise share (§IV-B).
 */

#include <cstdio>

#include "anaheim/framework.h"
#include "bench_util.h"
#include "trace/builders.h"

using namespace anaheim;

static int
run(bench::JsonReport &report)
{
    bench::header("Fig. 2c — T_boot,eff for MinKS / Hoisting / Base "
                  "(D=4, A100 80GB, no PIM)");

    const TraceParams params;
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.pimEnabled = false;
    const AnaheimFramework framework(config);

    const struct {
        const char *name;
        TraceLtAlgorithm algorithm;
    } rows[] = {
        {"MinKS", TraceLtAlgorithm::MinKS},
        {"Hoist", TraceLtAlgorithm::Hoisting},
        {"Base", TraceLtAlgorithm::Base},
    };

    bench::Table table(report, {
        {"algorithm", "Algo", "%-6s"},
        {"ew_ms", "EW ms", "%8.2f"},
        {"ntt_ms", "NTT ms", "%8.2f"},
        {"bconv_ms", "BConv ms", "%8.2f"},
        {"aut_ms", "Aut ms", "%8.2f"},
        {"tboot_eff_ms", "T_boot,eff", "%8.2fms"},
        {"ew_pct", "EW %", "%5.1f%%"},
    });
    for (const auto &row : rows) {
        const auto result =
            framework.execute(buildBootstrap(params, 3.5, row.algorithm));
        const double totalMs = result.totalNs * 1e-6;
        const double ewMs = bench::categoryMs(result, "ElementWise");
        table.row({row.name, ewMs, bench::categoryMs(result, "(I)NTT"),
                   bench::categoryMs(result, "BConv"),
                   bench::categoryMs(result, "Automorphism"),
                   totalMs / bootstrapLevelsEff(params, 3.5),
                   100.0 * ewMs / totalMs});
    }
    std::printf("\n");
    bench::note("paper: MinKS hardly speeds up GPUs (evks stream from "
                "DRAM regardless); hoisting wins while raising the "
                "element-wise share from ~28% to 45-48%");
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::runBench("fig2c_minks", argc, argv, run);
}
