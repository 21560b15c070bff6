/**
 * @file
 * Factored homomorphic DFT plans for CoeffToSlot / SlotToCoeff [17].
 *
 * The encoder's special FFT is `E = S_n * ... * S_2 * B` (butterfly
 * stages after a bit-reversal B). Because the ops between CoeffToSlot
 * and SlotToCoeff (conjugation split and EvalMod) are all slot-wise,
 * the bit reversal can be dropped from BOTH transforms: CoeffToSlot
 * evaluates B * E^{-1} = S_2^{-1} * ... * S_n^{-1} and SlotToCoeff
 * evaluates E * B^{-1} = S_n * ... * S_2 — pure products of 3-diagonal
 * butterfly stages, with no permutation factor anywhere.
 *
 * Stages are grouped into `fftIter` sparse factors (MAD [2]); each group
 * matrix is materialized numerically from the stage butterflies, which
 * keeps the factorization exactly consistent with the encoder.
 */

#ifndef ANAHEIM_BOOT_DFT_H
#define ANAHEIM_BOOT_DFT_H

#include <complex>
#include <vector>

#include "lintrans/diagmatrix.h"

namespace anaheim {

class DftPlan
{
  public:
    using Complex = std::complex<double>;

    /**
     * @param slots   Slot count n = N/2 (power of two).
     * @param fftIter Number of factors each transform is split into.
     */
    DftPlan(size_t slots, size_t fftIter);

    size_t slots() const { return slots_; }
    size_t fftIter() const { return fftIter_; }

    /**
     * CoeffToSlot factors, to be applied in returned order. The product
     * equals B * E^{-1} scaled by `extraScale` (the 1/n FFT scaling is
     * already included).
     */
    std::vector<DiagMatrix> coeffToSlotFactors(Complex extraScale) const;

    /**
     * SlotToCoeff factors, applied in returned order; product equals
     * E * B scaled by `extraScale`.
     */
    std::vector<DiagMatrix> slotToCoeffFactors(Complex extraScale) const;

    /** Reference full-matrix application, for tests. */
    std::vector<Complex> applyCoeffToSlot(std::vector<Complex> vals) const;
    std::vector<Complex> applySlotToCoeff(std::vector<Complex> vals) const;

  private:
    /** The forward butterfly on the pair (lo, hi) = (x[i + j],
     *  x[i + j + len/2]) of a block of length `len`, in place. */
    void forwardButterfly(Complex &lo, Complex &hi, size_t j,
                          size_t len) const;
    /** Inverse of forwardButterfly. */
    void inverseButterfly(Complex &lo, Complex &hi, size_t j,
                          size_t len) const;
    /** One forward butterfly stage of block length `len`, in place. */
    void forwardStage(std::vector<Complex> &vals, size_t len) const;
    /** Inverse of forwardStage. */
    void inverseStage(std::vector<Complex> &vals, size_t len) const;

    /** Materialize the composition of the given stages of one direction
     *  into a diagonal matrix, one butterfly path per entry. */
    DiagMatrix materialize(const std::vector<size_t> &stageLens,
                           bool forward, Complex scale) const;

    /** Split the log2(n) stages into fftIter contiguous groups. */
    std::vector<std::vector<size_t>> groupStages(
        const std::vector<size_t> &stageLens) const;

    size_t slots_;
    size_t fftIter_;
    std::vector<size_t> rotGroup_;
    std::vector<Complex> ksiPows_;
};

} // namespace anaheim

#endif // ANAHEIM_BOOT_DFT_H
