/**
 * @file
 * Precomputed gather tables for Galois automorphisms, in the encoding
 * the kernel backends' permuteNeg entry point consumes (DESIGN.md §13).
 *
 * An automorphism X -> X^k over the negacyclic ring is a pure index
 * permutation in both domains: a scatter with sign wraps on
 * coefficients, a slot permutation on evaluations. Inverting the
 * scatter once turns both into gathers — dst[j] = ±src[idx[j]] — which
 * the SIMD backends run as a 64-bit gather plus a sign-select blend.
 * Tables depend only on (n, k) (the eval-domain exponent structure is
 * identical across primes), so they are built once and shared through a
 * bounded process-wide cache, mirroring NttTable::shared().
 */

#ifndef ANAHEIM_MATH_AUTOMORPH_H
#define ANAHEIM_MATH_AUTOMORPH_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace anaheim {

class NttTable;

/**
 * Coefficient-domain gather table for X -> X^k: entry j is the source
 * coefficient index feeding output j, with kernels::kPermuteNegBit set
 * where the negacyclic wrap negates it. k must be odd and < 2n.
 */
std::shared_ptr<const std::vector<uint64_t>>
coeffAutomorphismTable(size_t n, uint64_t k);

/**
 * Eval-domain gather table for X -> X^k: entry j is the input slot
 * holding the evaluation point psi^{e_j * k}. No negation bits — slot
 * permutations are sign-free. Cached by (table.degree(), k); the table
 * argument only supplies the shared exponent structure.
 */
std::shared_ptr<const std::vector<uint64_t>>
evalAutomorphismTable(const NttTable &table, uint64_t k);

} // namespace anaheim

#endif // ANAHEIM_MATH_AUTOMORPH_H
