/**
 * @file
 * Arbitrary polynomial evaluation on ciphertexts — one of the
 * "optimized routines for advanced features" the Anaheim software
 * framework exposes (§V-C), and the building block of encrypted
 * activation functions (ReLU/sigmoid approximations) and comparisons
 * (the Sort workload).
 *
 * Monomial-basis coefficients are converted to the Chebyshev basis and
 * evaluated with the depth-optimal BSGS routine of chebyshev.h; inputs
 * must lie in [-1, 1] (use scaleToUnit for other ranges).
 */

#ifndef ANAHEIM_BOOT_POLYEVAL_H
#define ANAHEIM_BOOT_POLYEVAL_H

#include <functional>
#include <vector>

#include "chebyshev.h"

namespace anaheim {

/**
 * Convert monomial coefficients (c[0] + c[1] x + ...) into Chebyshev
 * coefficients over [-1, 1]. Exact (no sampling).
 */
std::vector<double> monomialToChebyshev(const std::vector<double> &coeffs);

class PolynomialEvaluator
{
  public:
    PolynomialEvaluator(const CkksEvaluator &evaluator,
                        const EvalKey &relinKey)
        : chebyshev_(evaluator, relinKey)
    {
    }

    /** Evaluate sum c[i] * x^i on slot values in [-1, 1]. */
    Ciphertext evaluate(const Ciphertext &x,
                        const std::vector<double> &monomialCoeffs) const;

    /**
     * Evaluate an arbitrary smooth function by Chebyshev interpolation
     * of the given degree (slot values in [-1, 1]).
     */
    Ciphertext evaluateFunction(const Ciphertext &x,
                                const std::function<double(double)> &f,
                                size_t degree) const;

  private:
    ChebyshevEvaluator chebyshev_;
};

} // namespace anaheim

#endif // ANAHEIM_BOOT_POLYEVAL_H
