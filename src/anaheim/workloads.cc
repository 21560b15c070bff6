#include "workloads.h"

#include <algorithm>

namespace anaheim {

namespace {

/** Append `count` HMULT+rescale pairs at descending levels. */
void
appendMultChain(OpSequence &seq, TraceParams params, size_t count,
                size_t levelFloor = 20)
{
    for (size_t i = 0; i < count; ++i) {
        seq.append(buildHMult(params));
        if (params.level > levelFloor)
            params.level -= 1;
    }
}

/** The bootstrap Sort, RNN and the two CNNs refresh with. */
OpSequence
workloadBootstrap(const TraceParams &params)
{
    return buildBootstrap(params, 3.5, TraceLtAlgorithm::Hoisting);
}

/** The level the workloads' own layers compute at. */
TraceParams
workLevel(const TraceParams &params)
{
    TraceParams work = params;
    work.level = 24;
    return work;
}

/** A workload that repeats one stage, cell or layer: the unit is built
 *  once, bootstrap included, and its ops are copied `copies` times. */
OpSequence
repeated(const char *name, const TraceParams &params,
         const OpSequence &unit, size_t copies)
{
    OpSequence seq;
    seq.name = name;
    seq.n = params.n;
    seq.append(unit, copies);
    return seq;
}

} // namespace

OpSequence
makeBootWorkload(const TraceParams &params, double fftIter)
{
    OpSequence seq =
        buildBootstrap(params, fftIter, TraceLtAlgorithm::Hoisting);
    seq.name = "Boot";
    return seq;
}

OpSequence
makeHelrWorkload(const TraceParams &params)
{
    // One logistic-regression iteration: the gradient computation is a
    // handful of mults/rotations, and the weight refresh bootstraps
    // only 196 slots — its linear transforms shrink to a few diagonals
    // while every ModSwitch stays full width, which is why ModSwitch
    // dominates HELR (§VII-B).
    OpSequence seq;
    seq.name = "HELR";
    seq.n = params.n;

    const TraceParams work = workLevel(params);
    appendMultChain(seq, work, 6, 16);
    seq.append(buildHRot(work), 8);

    // Sparse-slot bootstrap: same ModSwitch chain, tiny transforms.
    OpSequence boot =
        buildBootstrap(params, 3.0, TraceLtAlgorithm::Hoisting);
    // Shrink the rotation and accumulation work of the transforms to
    // the 196-slot scale: every KeyMult and MAC op keeps a quarter of
    // its limbs, on the op and on each of its operands.
    const auto quarter = [](uint32_t limbs) {
        return std::max<uint32_t>(1, limbs / 4);
    };
    for (auto &op : boot.ops) {
        if (op.phase == TracePhase::Mac || op.phase == TracePhase::KeyMult) {
            op.limbs = quarter(op.limbs);
            for (auto &operand : op.reads)
                operand.limbs = quarter(operand.limbs);
            for (auto &operand : op.writes)
                operand.limbs = quarter(operand.limbs);
        }
    }
    seq.append(boot);
    return seq;
}

OpSequence
makeSortWorkload(const TraceParams &params)
{
    // k-way sorting network on 2^14 values: ~105 compare-exchange
    // stages, each an approximate-comparison polynomial evaluation
    // (deep mult chains) plus data rearrangement rotations; the depth
    // forces frequent bootstrapping.
    const size_t stages = 50;  // paper: ~105; halved to bound trace size
    const size_t bootsPerStage = 3;
    const TraceParams work = workLevel(params);
    OpSequence stage;
    appendMultChain(stage, work, 10, 14);
    stage.append(buildHRot(work), 4); // data rearrangement
    stage.append(workloadBootstrap(params), bootsPerStage);
    return repeated("Sort", params, stage, stages);
}

OpSequence
makeRnnWorkload(const TraceParams &params)
{
    // 200 RNN-cell evaluations: per cell a 128-wide matrix-vector
    // product (diagonal linear transform), element-wise gating mults,
    // and periodic bootstrapping of the hidden state.
    const size_t cells = 100; // paper: 200; halved to bound trace size
    const TraceParams work = workLevel(params);
    OpSequence cell =
        buildLinearTransform(work, 16, TraceLtAlgorithm::Hoisting);
    appendMultChain(cell, work, 3, 14);
    // Every second cell ends in a bootstrap.
    OpSequence pair;
    pair.append(cell, 2);
    pair.append(workloadBootstrap(params));
    return repeated("RNN", params, pair, cells / 2);
}

OpSequence
makeResNet20Workload(const TraceParams &params)
{
    // 20 convolutional layers as packed linear transforms [49], ReLU
    // approximations as mult chains, bootstrapping between blocks.
    const size_t layers = 20;
    const TraceParams work = workLevel(params);
    OpSequence layer =
        buildLinearTransform(work, 9, TraceLtAlgorithm::Hoisting);
    appendMultChain(layer, work, 6, 14); // ReLU polynomial
    layer.append(workloadBootstrap(params));
    return repeated("ResNet20", params, layer, layers);
}

OpSequence
makeResNet18AespaWorkload(const TraceParams &params)
{
    // ImageNet-scale inference with NeuJeans convolutions and AESPA's
    // quadratic activation: more data per layer (more full-slot
    // ciphertexts), shallower activation chains.
    const size_t layers = 18;
    const TraceParams work = workLevel(params);
    OpSequence layer;
    layer.append(buildLinearTransform(work, 16, TraceLtAlgorithm::Hoisting),
                 2);
    appendMultChain(layer, work, 2, 14); // AESPA square activation
    layer.append(workloadBootstrap(params));
    return repeated("ResNet18-AESPA", params, layer, layers);
}

std::vector<std::pair<WorkloadInfo, OpSequence>>
makeAllWorkloads(const TraceParams &params)
{
    std::vector<std::pair<WorkloadInfo, OpSequence>> workloads;
    workloads.emplace_back(WorkloadInfo{"Boot"},
                           makeBootWorkload(params));
    workloads.emplace_back(WorkloadInfo{"HELR"},
                           makeHelrWorkload(params));
    workloads.emplace_back(WorkloadInfo{"Sort"},
                           makeSortWorkload(params));
    workloads.emplace_back(WorkloadInfo{"RNN"},
                           makeRnnWorkload(params));
    workloads.emplace_back(WorkloadInfo{"ResNet20"},
                           makeResNet20Workload(params));
    workloads.emplace_back(WorkloadInfo{"ResNet18-AESPA"},
                           makeResNet18AespaWorkload(params));
    return workloads;
}

} // namespace anaheim
