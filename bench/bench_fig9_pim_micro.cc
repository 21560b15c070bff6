/**
 * Fig. 9: microbenchmark of PIM instructions as the data-buffer entry
 * count B varies from 4 to 64 — speedup and energy efficiency versus
 * the GPU-side (external-DRAM) execution of the same op, for all three
 * Anaheim configurations.
 */

#include <cstdio>

#include "bench_util.h"
#include "pim/kernelmodel.h"

using namespace anaheim;

namespace {

void
sweep(bench::Table &table, const DramConfig &dram, const PimConfig &base,
      const char *name)
{
    const struct {
        PimOpcode opcode;
        size_t fanIn;
        const char *label;
    } instrs[] = {
        {PimOpcode::Add, 1, "Add"},       {PimOpcode::Mult, 1, "Mult"},
        {PimOpcode::Mac, 1, "MAC"},       {PimOpcode::PMult, 1, "PMult"},
        {PimOpcode::CMac, 1, "CMAC"},     {PimOpcode::Tensor, 1, "Tensor"},
        {PimOpcode::ModDownEp, 1, "ModDownEp"},
        {PimOpcode::PAccum, 4, "PAccum<4>"},
        {PimOpcode::CAccum, 8, "CAccum<8>"},
    };
    for (const auto &instr : instrs) {
        for (size_t b : {4u, 8u, 16u, 32u, 64u}) {
            if (!pimInstrSupported(instr.opcode, instr.fanIn, b))
                continue;
            PimConfig config = base;
            config.bufferEntries = b;
            const PimKernelModel model(dram, config);
            const auto pim =
                model.execute(instr.opcode, instr.fanIn, 54, 1 << 16);
            const auto gpu =
                model.baseline(instr.opcode, instr.fanIn, 54, 1 << 16);
            table.row({name, instr.label, b, gpu.timeNs / pim.timeNs,
                       gpu.energyPj / pim.energyPj});
        }
    }
}

} // namespace

static int
run(bench::JsonReport &report)
{
    bench::header("Fig. 9 — PIM instruction microbenchmark vs buffer "
                  "entries B (gains vs the GPU DRAM path)");
    bench::note("default B: 16 on both A100 configurations, 32 on the "
                "RTX 4090; a B an instruction does not fit has no row");
    bench::Table table(report, {
        {"config", "Config", "%-18s"},
        {"instr", "Instr", "%-9s"},
        {"buffer_entries", "B", "%2.0f"},
        {"speedup", "speedup", "%6.2fx"},
        {"energy_gain", "energy", "%6.2fx"},
    });
    sweep(table, DramConfig::hbm2A100(), PimConfig::nearBankA100(),
          "A100 near-bank");
    sweep(table, DramConfig::hbm2A100(), PimConfig::customHbmA100(),
          "A100 custom-HBM");
    sweep(table, DramConfig::gddr6xRtx4090(), PimConfig::nearBankRtx4090(),
          "RTX 4090 near-bank");
    std::printf("\n");
    bench::note("paper: 1.65-10.33x speedups and 2.63-17.39x energy "
                "gains at the default B; PAccum/CAccum gain most "
                "(7.26/3.98/3.63x and 10.33/4.31/6.20x); gains saturate "
                "with B, fastest for custom-HBM");
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::runBench("fig9_pim_micro", argc, argv, run);
}
