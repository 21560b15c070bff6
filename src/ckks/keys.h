/**
 * @file
 * CKKS key material and generation.
 *
 * Evaluation keys (evks) follow the hybrid (Han–Ki) gadget decomposition
 * the paper assumes: an evk is 2*D polynomials in R_PQ (Table I), where
 * digit j encrypts g_j * t for the gadget factor g_j = P * Dhat_j *
 * [Dhat_j^{-1}]_{D_j}, which reduces to (P mod q_i) on the digit's own
 * primes and 0 elsewhere.
 */

#ifndef ANAHEIM_CKKS_KEYS_H
#define ANAHEIM_CKKS_KEYS_H

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "context.h"
#include "poly/polynomial.h"

namespace anaheim {

struct SecretKey {
    /** Secret over the full QP basis, evaluation domain. */
    Polynomial s;
    /** The raw ternary coefficients (needed to derive s^2 and phi(s)). */
    std::vector<int8_t> coeffs;
};

struct PublicKey {
    /** (b, a) with b = -a*s + e over the full Q basis. */
    Polynomial b;
    Polynomial a;
};

/** Evaluation key: D digit pairs over QP (2*D polynomials, Table I). */
struct EvalKey {
    std::vector<Polynomial> b;
    std::vector<Polynomial> a;

    size_t dnum() const { return b.size(); }
};

/** Keys for a set of rotations plus conjugation, indexed by Galois
 *  element. */
using GaloisKeys = std::map<uint64_t, EvalKey>;

class KeyGenerator
{
  public:
    KeyGenerator(const CkksContext &context, uint64_t seed = 1);

    const SecretKey &secretKey() const { return secret_; }

    PublicKey makePublicKey();

    /** Relinearization key: switches s^2 back to s. */
    EvalKey makeRelinKey();

    /** Key for the Galois automorphism X -> X^k. */
    EvalKey makeGaloisKey(uint64_t galoisElt);

    /** Galois keys for all rotations in `rotations` (+ conjugation when
     *  requested). */
    GaloisKeys makeGaloisKeys(const std::vector<int> &rotations,
                              bool withConjugation = false);

    /** Galois element for cyclic rotation by r at ring degree n. */
    static uint64_t rotationGaloisElt(int rotation, size_t n);

    /** Galois element for conjugation. */
    static uint64_t conjugationGaloisElt(size_t n);

  private:
    /** Build an evk switching key `target` (over QP, Eval) to s. */
    EvalKey makeSwitchingKey(const Polynomial &target);

    const CkksContext &context_;
    Rng rng_;
    SecretKey secret_;
};

} // namespace anaheim

#endif // ANAHEIM_CKKS_KEYS_H
