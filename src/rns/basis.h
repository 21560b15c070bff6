/**
 * @file
 * Residue number system (RNS) basis: an ordered set of NTT-friendly
 * primes together with their shared ring degree and per-prime NTT tables.
 *
 * With RNS, a polynomial in R_Q is represented as L limbs, where limb i
 * holds the coefficients mod Q_i (§II-A of the paper). All higher layers
 * (poly, ckks) reference limbs through an RnsBasis.
 */

#ifndef ANAHEIM_RNS_BASIS_H
#define ANAHEIM_RNS_BASIS_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "math/ntt.h"

namespace anaheim {

/**
 * Immutable prime basis shared by polynomials.
 *
 * Construction precomputes one NttTable per prime, which is the dominant
 * setup cost; contexts therefore build a single full basis and hand out
 * sub-bases (prime subsets) that share the tables.
 */
class RnsBasis
{
  public:
    RnsBasis() = default;

    /** Build a basis and its NTT tables from scratch. */
    RnsBasis(std::vector<uint64_t> primes, size_t n);

    size_t size() const { return primes_.size(); }
    size_t degree() const { return n_; }
    uint64_t prime(size_t i) const { return primes_[i]; }
    const std::vector<uint64_t> &primes() const { return primes_; }
    const NttTable &table(size_t i) const { return *tables_[i]; }

    /** Sub-basis consisting of primes [first, first + count), sharing
     *  NTT tables with this basis. */
    RnsBasis slice(size_t first, size_t count) const;

    /** Concatenation of this basis with another (same degree). */
    RnsBasis concat(const RnsBasis &other) const;

    /** log2 of the basis product, for security accounting. */
    double logProduct() const;

  private:
    std::vector<uint64_t> primes_;
    std::vector<std::shared_ptr<const NttTable>> tables_;
    size_t n_ = 0;
};

} // namespace anaheim

#endif // ANAHEIM_RNS_BASIS_H
