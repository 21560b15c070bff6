/**
 * Fig. 4a: Gantt comparison of an optimized linear transform (K=8,
 * hoisting) on A100: GPU-only, hypothetical 4x-bandwidth DRAM, and PIM
 * offloading. Fig. 4b: bootstrapping DRAM access volume and energy
 * with and without PIM, plus the unlimited-cache ideal.
 */

#include <cstdio>
#include <string>

#include "anaheim/framework.h"
#include "anaheim/workloads.h"
#include "bench_util.h"
#include "common/units.h"
#include "trace/builders.h"

using namespace anaheim;

namespace {

void
printGantt(const char *label, const RunResult &result)
{
    // Condense the timeline into phase segments.
    std::printf("  %-12s | ", label);
    std::string lastKey;
    double segStart = 0.0;
    for (size_t i = 0; i <= result.timeline.size(); ++i) {
        const bool flush = i == result.timeline.size() ||
                           result.timeline[i].device + "/" +
                                   result.timeline[i].phase !=
                               lastKey;
        if (flush && !lastKey.empty()) {
            const double end = i == result.timeline.size()
                                   ? result.totalNs
                                   : result.timeline[i].startNs;
            std::printf("[%s %.0fus] ", lastKey.c_str(),
                        (end - segStart) * 1e-3);
        }
        if (i < result.timeline.size() && flush) {
            lastKey = result.timeline[i].device + "/" +
                      result.timeline[i].phase;
            segStart = result.timeline[i].startNs;
        }
    }
    std::printf("\n");
}

} // namespace

static int
run(bench::JsonReport &report)
{
    bench::header("Fig. 4a — linear transform (K=8, hoisting) on A100: "
                  "GPU-only vs 4x-BW DRAM vs PIM");

    const TraceParams params;
    const OpSequence lt =
        buildLinearTransform(params, 8, TraceLtAlgorithm::Hoisting);

    AnaheimConfig gpuOnly = AnaheimConfig::a100NearBank();
    gpuOnly.pimEnabled = false;
    const auto resultGpu = AnaheimFramework(gpuOnly).execute(lt);

    AnaheimConfig fourX = gpuOnly;
    fourX.gpu.dramBwGBs *= 4.0;
    const auto result4x = AnaheimFramework(fourX).execute(lt);

    const AnaheimConfig withPim = AnaheimConfig::a100NearBank();
    const auto resultPim = AnaheimFramework(withPim).execute(lt);

    bench::Table lintrans(report, {
        {"config", "Config", "%-10s"},
        {"lt_total_us", "total", "%10.2fus"},
        {"lt_speedup", "speedup", "%7.2fx"},
    });
    const struct {
        const char *name;
        const RunResult &result;
    } arms[] = {
        {"w/o PIM", resultGpu},
        {"4x BW DRAM", result4x},
        {"PIM", resultPim},
    };
    for (const auto &arm : arms) {
        lintrans.row({arm.name, arm.result.totalNs * 1e-3,
                      resultGpu.totalNs / arm.result.totalNs});
    }
    for (const auto &arm : arms)
        printGantt(arm.name, arm.result);
    bench::note("paper: 4x BW helps element-wise ops 2.84x but barely "
                "touches ModSwitch; PIM obtains similar gains without "
                "raising external bandwidth");

    bench::header("Fig. 4b — bootstrapping GPU-side DRAM access and "
                  "DRAM energy");
    const OpSequence boot = makeBootWorkload();
    const auto bootGpu = AnaheimFramework(gpuOnly).execute(boot);
    const auto bootPim = AnaheimFramework(withPim).execute(boot);

    // Ideal: unlimited cache, MinKS (only compulsory evk/plaintext
    // misses).
    double idealBytes = 0.0;
    for (const auto &op :
         buildBootstrap(params, 3.5, TraceLtAlgorithm::MinKS).ops) {
        for (const auto &operand : op.reads) {
            if (operand.kind == OperandKind::PlainConst)
                idealBytes += operand.limbs * limbBytes(op.n);
        }
    }
    // One evk per distinct rotation; MinKS reuses a single one per
    // transform plus relinearization/conjugation keys: ~4 evks.
    idealBytes += 4.0 * 2.0 * params.digits() * params.extended() *
                  limbBytes(params.n);

    bench::Table traffic(report, {
        {"config", "Config", "%-7s"},
        {"gpu_dram_bytes", "GPU DRAM", "%8.2fGB", 1.0 / kGiB},
        {"energy_j", "energy", "%7.3fJ"},
        {"pim_internal_bytes", "PIM-internal", "%10.2fGB", 1.0 / kGiB},
    });
    traffic.row({"w/o PIM", bootGpu.gpuDramBytes, bootGpu.energyJoules(),
                 bootGpu.pimInternalBytes});
    traffic.row({"PIM", bootPim.gpuDramBytes, bootPim.energyJoules(),
                 bootPim.pimInternalBytes});
    std::printf("\nThe unlimited-cache ideal, and the cuts PIM makes:\n");
    bench::Table versus(report, {
        {"ideal_gpu_dram_bytes", "ideal DRAM", "%8.2fGB", 1.0 / kGiB},
        {"dram_reduction", "DRAM cut", "%8.2fx"},
        {"pim_vs_ideal", "PIM/ideal", "%8.2fx"},
        {"energy_reduction", "energy cut", "%9.2fx"},
    });
    versus.row({idealBytes, bootGpu.gpuDramBytes / bootPim.gpuDramBytes,
                bootPim.gpuDramBytes / idealBytes,
                bootGpu.energyJoules() / bootPim.energyJoules()});
    bench::note("paper: 6.15x less GPU DRAM traffic, 1.86x of the "
                "ideal, 2.87x less DRAM energy");
    return 0;
}

int
main(int argc, char **argv)
{
    return bench::runBench("fig4_lintrans_pim", argc, argv, run);
}
