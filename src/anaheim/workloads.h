/**
 * @file
 * The six FHE CKKS workloads of the paper's evaluation (§VII-A),
 * expressed as kernel traces: Boot, HELR, Sort, RNN, ResNet20 and
 * ResNet18-AESPA. Each trace composes bootstrapping invocations with
 * the workload's own linear transforms, multiplications and rotations;
 * the structure (op mix and counts) follows the cited implementations,
 * with synthetic weights (see the substitution table in DESIGN.md).
 */

#ifndef ANAHEIM_ANAHEIM_WORKLOADS_H
#define ANAHEIM_ANAHEIM_WORKLOADS_H

#include <vector>

#include "trace/builders.h"

namespace anaheim {

struct WorkloadInfo {
    const char *name;
};

/** Full-slot bootstrapping (L: 2 -> 54 -> 24, L_eff = 11). */
OpSequence makeBootWorkload(const TraceParams &params = {},
                            double fftIter = 3.5);

/** HELR [33]: one training iteration on a 1024-batch of 14x14 MNIST.
 *  Bootstrapping only refreshes 196 weights, so ModSwitch dominates. */
OpSequence makeHelrWorkload(const TraceParams &params = {});

/** Sort [35]: two-way sorting of 2^14 values. */
OpSequence makeSortWorkload(const TraceParams &params = {});

/** RNN [67]: 200 evaluations of an RNN cell on 32x128 embeddings. */
OpSequence makeRnnWorkload(const TraceParams &params = {});

/** ResNet20 [49] CIFAR-10 inference. */
OpSequence makeResNet20Workload(const TraceParams &params = {});

/** ResNet18-AESPA [37] ImageNet inference. */
OpSequence makeResNet18AespaWorkload(const TraceParams &params = {});

/** All six workloads in the paper's order. */
std::vector<std::pair<WorkloadInfo, OpSequence>> makeAllWorkloads(
    const TraceParams &params = {});

} // namespace anaheim

#endif // ANAHEIM_ANAHEIM_WORKLOADS_H
