/**
 * Fig. 8: execution-time, energy-efficiency and EDP improvements of
 * Anaheim over the GPU baseline for the six workloads, on all three
 * PIM configurations of Table III.
 */

#include <cstdio>
#include <string>

#include "anaheim/framework.h"
#include "anaheim/workloads.h"
#include "bench_util.h"
#include "obs/report.h"

using namespace anaheim;

static int
run(bench::JsonReport &report)
{
    bench::header("Fig. 8 — workload speedup / energy / EDP gains from "
                  "Anaheim");

    const struct {
        const char *name;
        AnaheimConfig config;
    } configs[] = {
        {"A100 near-bank", AnaheimConfig::a100NearBank()},
        {"A100 custom-HBM", AnaheimConfig::a100CustomHbm()},
        {"RTX4090 near-bank", AnaheimConfig::rtx4090NearBank()},
    };
    const auto workloads = makeAllWorkloads();
    bench::reportConfig(report, configs[0].config);

    bench::Table table(report, {
        {"config", "Config", "%-17s"},
        {"workload", "Workload", "%-14s"},
        {"base_ms", "base ms", "%9.2f"},
        {"pim_ms", "PIM ms", "%9.2f"},
        {"speedup", "speedup", "%6.2fx"},
        {"energy_gain", "energy", "%6.2fx"},
        {"edp_gain", "EDP", "%6.2fx"},
    });
    bool attributed = false;
    for (const auto &cfg : configs) {
        for (const auto &[info, seq] : workloads) {
            if (bench::outOfMemory(cfg.config, info.name)) {
                bench::note(std::string(cfg.name) + " " + info.name +
                            ": OoM");
                continue;
            }
            AnaheimConfig base = cfg.config;
            base.pimEnabled = false;
            const auto baseline = AnaheimFramework(base).execute(seq);
            const auto pim = AnaheimFramework(cfg.config).execute(seq);
            table.row({cfg.name, info.name, baseline.totalNs * 1e-6,
                       pim.totalNs * 1e-6, baseline.totalNs / pim.totalNs,
                       baseline.energyJoules() / pim.energyJoules(),
                       baseline.edp() / pim.edp()});
            if (!attributed) {
                // Where the first workload's time goes on the first
                // configuration (kernel class x GPU/PIM x bound).
                obs::printAttribution(pim);
                attributed = true;
            }
        }
    }
    std::printf("\n");
    bench::note("paper: speedups 1.24-1.74x (A100 NB), 1.17-1.55x (A100 "
                "cHBM), 1.06-1.49x (4090 NB); EDP 1.62-3.14x; HELR gains "
                "least (ModSwitch-dominated, 196-slot bootstrap)");
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::runBench("fig8_workloads", argc, argv, run);
}
