/**
 * Ablation (§VI-B, §VI-D design-choice studies beyond the paper's
 * figures): how Anaheim's PIM execution scales with the die-group
 * count (limb-level parallelism), the banks-per-unit ratio of the
 * custom-HBM variant, and column partitioning on or off per
 * instruction. The column-group count is fixed at the paper's 8
 * (PimConfig::kColumnGroups), so no width sweep runs.
 */

#include <cstdio>

#include "bench_util.h"
#include "pim/kernelmodel.h"

using namespace anaheim;

static int
run(bench::JsonReport &report)
{
    bench::header("Ablation — PIM scalability and layout choices");

    // 1. Die groups: limb-level parallelism (§VI-B "high scalability").
    std::printf("\nKeyMult PAccum<4> (68 limbs) vs die groups "
                "(A100 near-bank):\n");
    bench::Table dies(report, {
        {"die_groups", "dieGroups", "%9.0f"},
        {"paccum_us", "time", "%8.1fus"},
        {"speedup", "speedup", "%7.2fx"},
    });
    double base = 0.0;
    for (size_t groups : {1u, 2u, 5u, 10u}) {
        PimConfig config = PimConfig::nearBankA100();
        config.dieGroups = groups;
        const PimKernelModel model(DramConfig::hbm2A100(), config);
        const auto stats = model.execute(PimOpcode::PAccum, 4, 68, 1 << 16);
        if (base == 0.0)
            base = stats.timeNs;
        dies.row({groups, stats.timeNs * 1e-3, base / stats.timeNs});
    }

    // 2. Banks per unit on the custom-HBM logic die: more banks per
    // unit hides ACT/PRE better but serializes streaming.
    std::printf("\ncustom-HBM banks-per-unit trade-off (PAccum<4>):\n");
    bench::Table banks(report, {
        {"banks_per_unit", "banksPerUnit", "%12.0f"},
        {"paccum_us", "time", "%8.1fus"},
    });
    for (size_t perUnit : {2u, 4u, 8u, 16u}) {
        PimConfig config = PimConfig::customHbmA100();
        config.banksPerUnit = perUnit;
        const PimKernelModel model(DramConfig::hbm2A100(), config);
        const auto stats = model.execute(PimOpcode::PAccum, 4, 68, 1 << 16);
        banks.row({perUnit, stats.timeNs * 1e-3});
    }

    // 3. Column-partitioning on/off across instructions (extends the
    // Fig. 10 w/o-CP data point to the full ISA).
    std::printf("\ncolumn partitioning ablation per instruction "
                "(A100 near-bank, B=16):\n");
    bench::Table layout(report, {
        {"instr", "instr", "%-9s"},
        {"with_cp_us", "with CP", "%8.1fus"},
        {"without_cp_us", "w/o CP", "%8.1fus"},
        {"cp_slowdown", "slowdown", "%8.2fx"},
    });
    struct InstrRow {
        PimOpcode op;
        size_t fanIn;
        const char *label;
    };
    const InstrRow rows[] = {{PimOpcode::Add, 1, "Add"},
                             {PimOpcode::Mac, 1, "MAC"},
                             {PimOpcode::PMult, 1, "PMult"},
                             {PimOpcode::Tensor, 1, "Tensor"},
                             {PimOpcode::PAccum, 4, "PAccum<4>"}};
    for (const auto &[op, fanIn, label] : rows) {
        PimConfig with = PimConfig::nearBankA100();
        PimConfig without = PimConfig::nearBankA100();
        without.columnPartition = false;
        const PimKernelModel mWith(DramConfig::hbm2A100(), with);
        const PimKernelModel mWithout(DramConfig::hbm2A100(), without);
        const auto a = mWith.execute(op, fanIn, 54, 1 << 16);
        const auto b = mWithout.execute(op, fanIn, 54, 1 << 16);
        layout.row({label, a.timeNs * 1e-3, b.timeNs * 1e-3,
                    b.timeNs / a.timeNs});
    }

    std::printf("\n");
    bench::note("expected shapes: near-linear die-group scaling; "
                "banks-per-unit serializes streaming (the paper picks 8 "
                "for area, not speed); CP slowdown grows with operand "
                "count (worst for PAccum/Tensor), matching §VI-C");
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::runBench("ablation_scaling", argc, argv, run);
}
