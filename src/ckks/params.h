/**
 * @file
 * CKKS parameter set of the functional library.
 *
 * The library accepts any ring degree and prime width; its tests
 * default to small rings with wide primes for speed and precision. The
 * paper's hardware-model configuration (Table IV: N = 2^16, L = 54,
 * alpha = 14, D = 4) lives with the trace builders, as `TraceParams`.
 */

#ifndef ANAHEIM_CKKS_PARAMS_H
#define ANAHEIM_CKKS_PARAMS_H

#include <cstddef>

namespace anaheim {

struct CkksParams {
    /** Ring degree N (power of two). */
    size_t n = 1 << 12;
    /** Number of ciphertext primes L (level budget + 1). */
    size_t levels = 8;
    /** Number of special primes alpha; the digit size of hybrid
     *  keyswitching. D = ceil(L / alpha). */
    size_t alpha = 2;
    /** log2 of the scaling factor Delta. */
    unsigned logScale = 40;
    /** Bit width of the first (and special) primes; must exceed
     *  logScale to leave headroom for the final message. */
    unsigned firstModulusBits = 50;
    /** Gaussian error standard deviation. */
    double sigma = 3.2;
    /** Secret Hamming weight; 0 selects the dense ternary secret. */
    size_t hammingWeight = 0;

    /** Decomposition number D = ceil(L / alpha) (§II-C). */
    size_t dnum() const { return (levels + alpha - 1) / alpha; }
    size_t slots() const { return n / 2; }

    /** Abort (fatal) when the combination is internally inconsistent. */
    void validate() const;

    /** Small functional-test parameters (fast on one CPU core). */
    static CkksParams testParams(size_t n = 1 << 10, size_t levels = 6,
                                 size_t alpha = 2);

    /** Parameters sized for the functional bootstrapping test. */
    static CkksParams bootstrapParams(size_t n = 1 << 11);
};

} // namespace anaheim

#endif // ANAHEIM_CKKS_PARAMS_H
