#include "builders.h"

#include <algorithm>
#include <cmath>

namespace anaheim {

namespace {

using Ops = std::vector<KernelOp>;

KernelOp
make(KernelType type, TracePhase phase, size_t n, size_t limbs,
     size_t fanIn, OperandList<3> reads, OperandList<1> writes,
     bool pimEligible)
{
    KernelOp op;
    op.type = type;
    op.phase = phase;
    op.pimEligible = pimEligible;
    op.n = traceField(n);
    op.limbs = traceField(limbs);
    op.fanIn = traceField(fanIn);
    op.reads = reads;
    op.writes = writes;
    return op;
}

OpSequence
named(const char *name, const TraceParams &params)
{
    OpSequence seq;
    seq.name = name;
    seq.n = params.n;
    return seq;
}

// Each emit* appends one sub-trace to `ops`, so a whole bootstrap
// builds into one vector.

/** ModUp: per digit INTT -> BConv -> NTT (§II-B). */
void
emitModUp(Ops &ops, const TraceParams &params)
{
    const size_t l = params.level;
    const size_t alpha = params.alpha;
    const size_t ext = params.extended();
    for (size_t j = 0; j < params.digits(); ++j) {
        const size_t digitLimbs = std::min(alpha, l - j * alpha);
        const size_t outLimbs = ext - digitLimbs;
        ops.push_back(make(KernelType::Intt, TracePhase::ModUp, params.n,
                           digitLimbs, 1,
                           {{OperandKind::Working, digitLimbs}},
                           {{OperandKind::Intermediate, digitLimbs}},
                           false));
        ops.push_back(make(KernelType::BConv, TracePhase::ModUp, params.n,
                           outLimbs, digitLimbs,
                           {{OperandKind::Intermediate, digitLimbs}},
                           {{OperandKind::Intermediate, outLimbs}}, false));
        ops.push_back(make(KernelType::Ntt, TracePhase::ModUp, params.n,
                           outLimbs, 1,
                           {{OperandKind::Intermediate, outLimbs}},
                           {{OperandKind::Intermediate, outLimbs}}, false));
    }
}

/** KeyMult: PAccum<D> over the extended modulus — the element-wise
 *  block Anaheim offloads. */
void
emitKeyMult(Ops &ops, const TraceParams &params, TracePhase phase)
{
    const size_t ext = params.extended();
    const size_t digits = params.digits();
    ops.push_back(make(KernelType::EwPAccum, phase, params.n, ext, digits,
                       {{OperandKind::Working, digits * ext},
                        {OperandKind::Evk, 2 * digits * ext}},
                       {{OperandKind::Intermediate, 2 * ext}}, true));
}

/** ModDown on both result polynomials. */
void
emitModDown(Ops &ops, const TraceParams &params)
{
    const size_t l = params.level;
    const size_t alpha = params.alpha;
    for (int poly = 0; poly < 2; ++poly) {
        ops.push_back(make(KernelType::Intt, TracePhase::ModDown, params.n,
                           alpha, 1, {{OperandKind::Intermediate, alpha}},
                           {{OperandKind::Intermediate, alpha}}, false));
        ops.push_back(make(KernelType::BConv, TracePhase::ModDown,
                           params.n, l, alpha,
                           {{OperandKind::Intermediate, alpha}},
                           {{OperandKind::Intermediate, l}}, false));
        ops.push_back(make(KernelType::Ntt, TracePhase::ModDown, params.n,
                           l, 1, {{OperandKind::Intermediate, l}},
                           {{OperandKind::Intermediate, l}}, false));
        ops.push_back(make(KernelType::EwModDownEp, TracePhase::ModDown,
                           params.n, l, 1,
                           {{OperandKind::Intermediate, 2 * l}},
                           {{OperandKind::Working, l}}, true));
    }
}

void
emitKeySwitch(Ops &ops, const TraceParams &params, TracePhase phase)
{
    emitModUp(ops, params);
    emitKeyMult(ops, params, phase);
    emitModDown(ops, params);
}

void
emitRescale(Ops &ops, const TraceParams &params)
{
    const size_t l = params.level;
    for (int poly = 0; poly < 2; ++poly) {
        ops.push_back(make(KernelType::Intt, TracePhase::Rescale, params.n,
                           1, 1, {{OperandKind::Working, 1}},
                           {{OperandKind::Intermediate, 1}}, false));
        ops.push_back(make(KernelType::Ntt, TracePhase::Rescale, params.n,
                           l - 1, 1, {{OperandKind::Intermediate, l - 1}},
                           {{OperandKind::Intermediate, l - 1}}, false));
        ops.push_back(make(KernelType::EwModDownEp, TracePhase::Rescale,
                           params.n, l - 1, 1,
                           {{OperandKind::Working, l - 1},
                            {OperandKind::Intermediate, l - 1}},
                           {{OperandKind::Working, l - 1}}, true));
    }
}

void
emitHMult(Ops &ops, const TraceParams &params)
{
    const size_t l = params.level;
    ops.push_back(make(KernelType::EwTensor, TracePhase::Tensor, params.n,
                       l, 1, {{OperandKind::Working, 4 * l}},
                       {{OperandKind::Intermediate, 3 * l}}, true));
    emitKeySwitch(ops, params, TracePhase::KeyMult);
    ops.push_back(make(KernelType::EwAdd, TracePhase::Relin, params.n,
                       2 * l, 1, {{OperandKind::Working, 4 * l}},
                       {{OperandKind::Working, 2 * l}}, true));
    emitRescale(ops, params);
}

/** Fig. 1 (left): ModUp -> KeyMult -> MAC -> automorphism -> ModDown. */
void
emitHRot(Ops &ops, const TraceParams &params)
{
    const size_t l = params.level;
    const size_t ext = params.extended();
    emitModUp(ops, params);
    emitKeyMult(ops, params, TracePhase::KeyMult);
    ops.push_back(make(KernelType::EwCMac, TracePhase::Mac, params.n,
                       2 * ext, 1,
                       {{OperandKind::Intermediate, 2 * ext},
                        {OperandKind::Working, 2 * l}},
                       {{OperandKind::Intermediate, 2 * ext}}, true));
    ops.push_back(make(KernelType::Automorphism, TracePhase::Automorphism,
                       params.n, 2 * ext, 1,
                       {{OperandKind::Intermediate, 2 * ext}},
                       {{OperandKind::Intermediate, 2 * ext}}, false));
    emitModDown(ops, params);
}

void
emitLinearTransform(Ops &ops, const TraceParams &params, size_t k,
                    TraceLtAlgorithm algorithm, const TraceOptions &options)
{
    const size_t l = params.level;
    const size_t ext = params.extended();

    switch (algorithm) {
      case TraceLtAlgorithm::Base:
      case TraceLtAlgorithm::MinKS: {
        // K full HROT evaluations (MinKS differs only in reusing one
        // evk; on GPUs the evk streams from DRAM either way, §III-C).
        for (size_t i = 0; i < k; ++i)
            emitHRot(ops, params);
        // PMULT of each rotated ciphertext and accumulation.
        if (options.basicFuse) {
            ops.push_back(make(KernelType::EwPAccum, TracePhase::Mac,
                               params.n, l, k,
                               {{OperandKind::Working, 2 * k * l},
                                {OperandKind::PlainConst, k * l}},
                               {{OperandKind::Working, 2 * l}}, true));
        } else {
            for (size_t i = 0; i < k; ++i) {
                ops.push_back(make(KernelType::EwPMult, TracePhase::Mac,
                                   params.n, l, 1,
                                   {{OperandKind::Working, 2 * l},
                                    {OperandKind::PlainConst, l}},
                                   {{OperandKind::Intermediate, 2 * l}},
                                   true));
                ops.push_back(make(KernelType::EwAdd, TracePhase::Mac,
                                   params.n, 2 * l, 1,
                                   {{OperandKind::Intermediate, 4 * l}},
                                   {{OperandKind::Intermediate, 2 * l}},
                                   true));
            }
        }
        break;
      }
      case TraceLtAlgorithm::Hoisting: {
        // Fig. 5: one ModUp; per-baby-rotation KeyMult; PMULT +
        // accumulation in the extended modulus PQ; one ModDown;
        // AutAccum. With the BSGS decomposition (footnote 1) only
        // ~sqrt(K) baby rotations share the hoisted ModUp, while each
        // of the ~sqrt(K) giant-step groups pays a full keyswitch
        // after its inner accumulation. All K diagonal plaintexts
        // stream regardless.
        const size_t babies = std::min(
            k, static_cast<size_t>(
                   std::ceil(std::sqrt(static_cast<double>(k)))));
        const size_t giants =
            k <= babies ? 0 : (k + babies - 1) / babies - 1;
        const size_t rotations = babies;
        emitModUp(ops, params);
        for (size_t i = 0; i < rotations; ++i)
            emitKeyMult(ops, params, TracePhase::KeyMult);
        // PMULT by the (pre-rotated, §V-B) plaintexts and accumulation,
        // for both result polynomials plus the b-part. The fused kernel
        // reads each rotated pair once (reused across the diagonals of
        // its giant-step group) while all K plaintexts stream.
        if (options.basicFuse) {
            ops.push_back(make(KernelType::EwPAccum, TracePhase::Mac,
                               params.n, ext, k,
                               {{OperandKind::Intermediate,
                                 2 * rotations * ext},
                                {OperandKind::PlainConst, k * ext}},
                               {{OperandKind::Intermediate, 2 * ext}},
                               true));
            ops.push_back(make(KernelType::EwPAccum, TracePhase::Mac,
                               params.n, l, k,
                               {{OperandKind::Working, 2 * l},
                                {OperandKind::PlainConst, k * l}},
                               {{OperandKind::Intermediate, 2 * l}}, true));
        } else {
            // Unfused, each PMAC reads its rotated pair, its plaintext
            // and the running accumulator: the trace's 3-read ops.
            for (size_t i = 0; i < k; ++i) {
                ops.push_back(make(KernelType::EwPMac, TracePhase::Mac,
                                   params.n, ext, 1,
                                   {{OperandKind::Intermediate, 2 * ext},
                                    {OperandKind::PlainConst, ext},
                                    {OperandKind::Intermediate, 2 * ext}},
                                   {{OperandKind::Intermediate, 2 * ext}},
                                   true));
                ops.push_back(make(KernelType::EwPMac, TracePhase::Mac,
                                   params.n, l, 1,
                                   {{OperandKind::Working, 2 * l},
                                    {OperandKind::PlainConst, l},
                                    {OperandKind::Intermediate, 2 * l}},
                                   {{OperandKind::Intermediate, 2 * l}},
                                   true));
            }
        }
        // One hoisted ModDown for the baby accumulation.
        emitModDown(ops, params);
        // Giant-step rotations: one full keyswitch per remaining group.
        for (size_t giant = 0; giant < giants; ++giant)
            emitKeySwitch(ops, params, TracePhase::KeyMult);
        // AutAccum: the relocated automorphisms fused with the final
        // accumulation (§V-B). Without AutFuse, each automorphism is a
        // separate kernel with its own DRAM round trip (2K reads + 2K
        // writes extra).
        if (options.autFuse) {
            ops.push_back(make(KernelType::Automorphism,
                               TracePhase::AutAccum, params.n, 2 * l, 1,
                               {{OperandKind::Working, 2 * l},
                                {OperandKind::Intermediate, 2 * l}},
                               {{OperandKind::Working, 2 * l}}, false));
        } else {
            ops.push_back(make(KernelType::Automorphism,
                               TracePhase::Automorphism, params.n, 2 * l,
                               1, {{OperandKind::Working, 2 * l}},
                               {{OperandKind::Intermediate, 2 * l}},
                               false));
            ops.push_back(make(KernelType::Automorphism,
                               TracePhase::Automorphism, params.n, 2 * l,
                               1, {{OperandKind::Intermediate, 2 * l}},
                               {{OperandKind::Intermediate, 2 * l}},
                               false));
            ops.push_back(make(KernelType::EwAdd, TracePhase::Accum,
                               params.n, 2 * l, 1,
                               {{OperandKind::Intermediate, 4 * l}},
                               {{OperandKind::Working, 2 * l}}, true));
        }
        break;
      }
    }
}

} // namespace

TraceParams
TraceParams::forDnum(size_t dnum)
{
    // Total limb budget L + alpha ~ 68 from log PQ < 1623 at ~24-bit
    // effective primes; L = budget * D / (D + 1) (Table IV is D = 4).
    TraceParams params;
    switch (dnum) {
      case 2: params.level = 45; params.alpha = 23; break;
      case 3: params.level = 51; params.alpha = 17; break;
      case 4: params.level = 54; params.alpha = 14; break;
      case 6: params.level = 58; params.alpha = 10; break;
      default:
        params.level = 68 * dnum / (dnum + 1);
        params.alpha = (params.level + dnum - 1) / dnum;
        break;
    }
    return params;
}

OpSequence
buildHAdd(const TraceParams &params)
{
    OpSequence seq = named("HADD", params);
    const size_t l = params.level;
    seq.ops.push_back(make(KernelType::EwAdd, TracePhase::HAdd, params.n,
                           2 * l, 1, {{OperandKind::Working, 4 * l}},
                           {{OperandKind::Working, 2 * l}}, true));
    return seq;
}

OpSequence
buildPMult(const TraceParams &params)
{
    OpSequence seq = named("PMULT", params);
    const size_t l = params.level;
    seq.ops.push_back(make(KernelType::EwPMult, TracePhase::PMult,
                           params.n, l, 1,
                           {{OperandKind::Working, 2 * l},
                            {OperandKind::PlainConst, l}},
                           {{OperandKind::Working, 2 * l}}, true));
    return seq;
}

OpSequence
buildKeySwitch(const TraceParams &params, TracePhase phase)
{
    OpSequence seq = named("KeySwitch", params);
    emitKeySwitch(seq.ops, params, phase);
    return seq;
}

OpSequence
buildRescale(const TraceParams &params)
{
    OpSequence seq = named("Rescale", params);
    emitRescale(seq.ops, params);
    return seq;
}

OpSequence
buildHMult(const TraceParams &params)
{
    OpSequence seq = named("HMULT", params);
    emitHMult(seq.ops, params);
    return seq;
}

OpSequence
buildHRot(const TraceParams &params)
{
    OpSequence seq = named("HROT", params);
    emitHRot(seq.ops, params);
    return seq;
}

OpSequence
buildLinearTransform(const TraceParams &params, size_t k,
                     TraceLtAlgorithm algorithm,
                     const TraceOptions &options)
{
    OpSequence seq = named("LinearTransform", params);
    emitLinearTransform(seq.ops, params, k, algorithm, options);
    return seq;
}

double
bootstrapLevelsEff(const TraceParams &params, double fftIter)
{
    // Level budget: sparse-secret encapsulation + EvalMod + margins
    // consume ~23 levels, plus one level per DFT factor on each side;
    // 13 levels stay reserved below the post-boot point. Calibrated to
    // the paper's schedule (54 -> 24, L_eff = 11 at fftIter mix 3/4).
    const double consumed = 23.0 + 2.0 * fftIter;
    const double remaining = static_cast<double>(params.level) - consumed;
    return std::max(1.0, remaining - 13.0);
}

OpSequence
buildBootstrap(const TraceParams &params, double fftIter,
               TraceLtAlgorithm algorithm, const TraceOptions &options)
{
    OpSequence seq = named("Bootstrap", params);
    Ops &ops = seq.ops;
    const size_t slots = params.n / 2;
    const double logSlots = std::log2(static_cast<double>(slots));

    TraceParams current = params;

    // Sparse-secret encapsulation: one keyswitch at full level.
    emitKeySwitch(ops, current, TracePhase::KeyMult);
    current.level -= 1;

    // CoeffToSlot: ceil(fftIter) stages; per-stage diagonal count for a
    // radix-r factor is 2r - 1 with r = 2^(log slots / fftIter).
    const size_t stages = static_cast<size_t>(std::ceil(fftIter));
    const size_t radix = static_cast<size_t>(
        std::round(std::pow(2.0, logSlots / fftIter)));
    const size_t kStage = 2 * std::max<size_t>(radix, 2) - 1;
    for (size_t s = 0; s < stages; ++s) {
        emitLinearTransform(ops, current, kStage, algorithm, options);
        emitRescale(ops, current);
        current.level -= 1;
    }
    // Conjugation split: one keyswitch.
    emitKeySwitch(ops, current, TracePhase::KeyMult);

    // EvalMod on both halves: ~16 HMULTs (Chebyshev babies + giants +
    // recursion + double-angle) spread over 11 levels.
    for (int half = 0; half < 2; ++half) {
        for (int step = 0; step < 16; ++step) {
            TraceParams em = current;
            em.level -= static_cast<size_t>(11.0 * step / 16.0);
            emitHMult(ops, em);
        }
    }
    current.level -= 11;

    // SlotToCoeff stages.
    for (size_t s = 0; s < stages; ++s) {
        emitLinearTransform(ops, current, kStage, algorithm, options);
        emitRescale(ops, current);
        current.level -= 1;
    }

    return seq;
}

} // namespace anaheim
