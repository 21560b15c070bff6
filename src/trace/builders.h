/**
 * @file
 * Op-sequence builders: generate the kernel traces of CKKS basic
 * functions, linear transforms and bootstrapping at the paper's
 * parameters (Fig. 1 and Fig. 5 flows).
 *
 * Builders are purely analytical — they enumerate the kernels the
 * functional library executes, at N = 2^16 scale where functional
 * execution would be wasteful. No test yet compares their kernel counts
 * with the library's; that cross-check is open work (ROADMAP item 7).
 */

#ifndef ANAHEIM_TRACE_BUILDERS_H
#define ANAHEIM_TRACE_BUILDERS_H

#include <vector>

#include "kernel.h"

namespace anaheim {

/** Paper-scale trace parameters (Table IV, 32-bit words). */
struct TraceParams {
    size_t n = size_t{1} << 16;
    /** Current number of Q limbs (level). */
    size_t level = 54;
    /** Special prime count. */
    size_t alpha = 14;

    size_t extended() const { return level + alpha; }
    size_t digits() const { return (level + alpha - 1) / alpha; }

    /**
     * Parameters for a given decomposition number D under the paper's
     * total limb budget (log PQ < 1623 with ~24-bit effective primes):
     * D=2: L=45/a=23, D=3: L=51/a=17, D=4: L=54/a=14, D=6: L=58/a=10.
     */
    static TraceParams forDnum(size_t dnum);
};

/** Linear-transform algorithm selector for trace generation. */
enum class TraceLtAlgorithm { Base, Hoisting, MinKS };

/** Which fusion/reordering optimizations the builder bakes in. */
struct TraceOptions {
    /** Fuse element-wise chains into PAccum/CAccum (BasicFuse). */
    bool basicFuse = true;
    /** Fuse the relocated automorphism into accumulation (AutFuse). */
    bool autFuse = true;
};

/** @name Basic CKKS functions (Fig. 2a). */
/// @{
OpSequence buildHAdd(const TraceParams &params);
OpSequence buildPMult(const TraceParams &params);
OpSequence buildHMult(const TraceParams &params);
OpSequence buildHRot(const TraceParams &params);
OpSequence buildRescale(const TraceParams &params);
/// @}

/**
 * Keyswitching sub-trace: ModUp -> KeyMult -> ModDown on one
 * polynomial (the core of HMULT / HROT, Fig. 1 left).
 */
OpSequence buildKeySwitch(const TraceParams &params, TracePhase phase);

/**
 * Linear transform with K rotations (Fig. 1 right / Fig. 5): the
 * building block of CoeffToSlot/SlotToCoeff and private DNN layers.
 */
OpSequence buildLinearTransform(const TraceParams &params, size_t k,
                                TraceLtAlgorithm algorithm,
                                const TraceOptions &options = {});

/** Full-slot CKKS bootstrapping trace (§VII-A Boot workload).
 *  fftIter selects the linear-transform factorization depth. */
OpSequence buildBootstrap(const TraceParams &params, double fftIter,
                          TraceLtAlgorithm algorithm,
                          const TraceOptions &options = {});

/** Effective levels after bootstrapping for T_boot,eff (§II-C). */
double bootstrapLevelsEff(const TraceParams &params, double fftIter);

} // namespace anaheim

#endif // ANAHEIM_TRACE_BUILDERS_H
