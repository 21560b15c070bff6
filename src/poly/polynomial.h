/**
 * @file
 * RNS polynomial: an L x N matrix of residues (L limbs of N coefficients)
 * over a shared RnsBasis, tracked as being in coefficient or evaluation
 * (NTT) domain.
 *
 * Element-wise operations (the ops Anaheim offloads to PIM) are valid in
 * either domain as long as both operands agree; polynomial products
 * require the evaluation domain. Automorphism is supported exactly in
 * both domains.
 */

#ifndef ANAHEIM_POLY_POLYNOMIAL_H
#define ANAHEIM_POLY_POLYNOMIAL_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "rns/basis.h"

namespace anaheim {

/** Representation domain of a polynomial's limbs. */
enum class Domain { Coeff, Eval };

class Polynomial
{
  public:
    Polynomial() = default;

    /** Zero polynomial over the given basis. */
    explicit Polynomial(RnsBasis basis, Domain domain = Domain::Eval);

    size_t degree() const { return basis_.degree(); }
    size_t limbCount() const { return basis_.size(); }
    Domain domain() const { return domain_; }
    const RnsBasis &basis() const { return basis_; }

    /** Limb storage is cache-line aligned (CoeffVector) so the
     *  vectorized kernels never split a 64-byte access. */
    CoeffVector &limb(size_t i) { return limbs_[i]; }
    const CoeffVector &limb(size_t i) const { return limbs_[i]; }
    std::vector<CoeffVector> &limbs() { return limbs_; }
    const std::vector<CoeffVector> &limbs() const { return limbs_; }

    /** In-place NTT of every limb; no-op when already in Eval domain. */
    void toEval();

    /** In-place inverse NTT of every limb. */
    void toCoeff();

    /** @name Element-wise modular arithmetic (in place, same domain
     *  required). An operand may carry more limbs than this polynomial
     *  (the same chain at a higher level): its first limbCount() limbs
     *  are read in place, as if truncated, and its primes must match
     *  there. */
    /// @{
    Polynomial &operator+=(const Polynomial &other);
    Polynomial &operator-=(const Polynomial &other);
    Polynomial &mulEq(const Polynomial &other);
    /** this += a * b. */
    Polynomial &macEq(const Polynomial &a, const Polynomial &b);
    Polynomial &negate();
    /** Multiply every limb i by scalar mod prime(i). */
    Polynomial &mulScalarEq(const std::vector<uint64_t> &scalarPerLimb);
    /** this += a * scalar, limb i by its own scalar mod prime(i). */
    Polynomial &macScalarEq(const Polynomial &a,
                            const std::vector<uint64_t> &scalarPerLimb);
    /** Add scalar mod prime(i) to every residue of limb i; in the Eval
     *  domain that adds the constant polynomial. */
    Polynomial &addScalarEq(const std::vector<uint64_t> &scalarPerLimb);
    /// @}

    friend Polynomial operator+(Polynomial lhs, const Polynomial &rhs)
    {
        lhs += rhs;
        return lhs;
    }
    friend Polynomial operator-(Polynomial lhs, const Polynomial &rhs)
    {
        lhs -= rhs;
        return lhs;
    }
    friend Polynomial
    mul(Polynomial lhs, const Polynomial &rhs)
    {
        lhs.mulEq(rhs);
        return lhs;
    }

    /**
     * Galois automorphism X -> X^k for odd k in [1, 2N). Exact in both
     * domains: coefficient domain permutes indices with sign, evaluation
     * domain permutes slots via the NTT tables' exponent maps.
     */
    Polynomial automorphism(uint64_t k) const;

    /**
     * Exact multiplication by the monomial X^power (power in [0, 2N)),
     * a negacyclic coefficient shift. Multiplying by X^{N/2} multiplies
     * every slot by i, which bootstrapping uses for its free real/imag
     * recombination. Preserves the domain.
     */
    Polynomial &mulMonomialEq(size_t power);

    /** Restrict to the first `count` limbs (view-copy; shares tables). */
    Polynomial firstLimbs(size_t count) const;

    /** Exact equality (basis primes, domain, residues). */
    bool operator==(const Polynomial &other) const;

  private:
    void checkCompatible(const Polynomial &other) const;

    RnsBasis basis_;
    Domain domain_ = Domain::Eval;
    std::vector<CoeffVector> limbs_;
};

/**
 * Build a polynomial from signed integer coefficients (length N),
 * reducing into every prime of the basis. Result is in Coeff domain.
 */
Polynomial polynomialFromSigned(const RnsBasis &basis,
                                const std::vector<int64_t> &coeffs);

/**
 * Reference negacyclic product of two coefficient vectors mod q —
 * O(N^2), used by tests to validate the NTT path.
 */
CoeffVector negacyclicMultiply(const CoeffVector &a, const CoeffVector &b,
                               uint64_t q);

} // namespace anaheim

#endif // ANAHEIM_POLY_POLYNOMIAL_H
