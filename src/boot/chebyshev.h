/**
 * @file
 * Chebyshev interpolation and its homomorphic evaluation, used by
 * EvalMod (the approximate modular reduction inside bootstrapping) and
 * exposed as the library's arbitrary-polynomial-evaluation routine.
 *
 * Evaluation uses the baby-step/giant-step Paterson–Stockmeyer recursion
 * over the Chebyshev basis (T_{m+i} = 2 T_m T_i - T_{m-i}), giving
 * multiplicative depth ~log2(degree). Each leaf sum c_k T_k runs as
 * integer-scalar MACs at the babies' common level and takes a single
 * rescale (one per sum, not one per term).
 */

#ifndef ANAHEIM_BOOT_CHEBYSHEV_H
#define ANAHEIM_BOOT_CHEBYSHEV_H

#include <functional>
#include <map>
#include <vector>

#include "ckks/evaluator.h"

namespace anaheim {

/**
 * Chebyshev interpolation coefficients of f on [-1, 1] up to `degree`
 * (inclusive), via the discrete cosine transform at Chebyshev nodes.
 */
std::vector<double> chebyshevFit(const std::function<double(double)> &f,
                                 size_t degree);

/** Reference (plain) evaluation of a Chebyshev series at x in [-1,1]. */
double chebyshevEvalPlain(const std::vector<double> &coeffs, double x);

class ChebyshevEvaluator
{
  public:
    ChebyshevEvaluator(const CkksEvaluator &evaluator,
                       const EvalKey &relinKey)
        : evaluator_(evaluator), relinKey_(relinKey)
    {
    }

    /**
     * Homomorphically evaluate the Chebyshev series on a ciphertext
     * whose slot values lie in [-1, 1]. Consumes ~log2(degree) + 1
     * levels. The result is rescaled to scale ~Delta.
     */
    Ciphertext evaluate(const Ciphertext &x,
                        const std::vector<double> &coeffs) const;

    /** Multiplicative depth `evaluate` consumes for this degree. */
    static size_t depthForDegree(size_t degree);

  private:
    using BabyTable = std::map<size_t, Ciphertext>;

    /** Compute Chebyshev polynomials T_1..T_count of the input. */
    BabyTable computeBabies(const Ciphertext &x, size_t count) const;

    /** T_{2k} from T_k: 2 T_k^2 - 1 (also used for giant steps). */
    Ciphertext doubleIndex(const Ciphertext &tk) const;

    Ciphertext recurse(const std::vector<double> &coeffs, size_t m,
                       const BabyTable &babies,
                       const std::map<size_t, Ciphertext> &giants,
                       size_t babyBound) const;

    /** sum_k coeffs[k] T_k: scalar MACs, then one rescale. */
    Ciphertext linearCombination(const std::vector<double> &coeffs,
                                 const BabyTable &babies) const;

    const CkksEvaluator &evaluator_;
    const EvalKey &relinKey_;
};

} // namespace anaheim

#endif // ANAHEIM_BOOT_CHEBYSHEV_H
