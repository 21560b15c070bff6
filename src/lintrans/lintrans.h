/**
 * @file
 * Homomorphic linear transforms in the diagonal packing of [32], in the
 * algorithm variants §III-B of the paper contrasts:
 *
 *  - Base: one full HROT + PMULT per diagonal (K ModUps, K ModDowns).
 *  - Hoisting [8], [32]: ModUp once, per-diagonal automorphism/KeyMult,
 *    PMULT and accumulation in the extended modulus PQ, one ModDown.
 *  - MinKS [32], [46]: iterated rotation by one, reusing a single evk.
 *  - BSGS hoisting: baby-step/giant-step with hoisted baby rotations,
 *    the variant bootstrapping uses (footnote 1 of the paper). Each
 *    diagonal index is split as a signed offset (see bsgsBabyCount),
 *    so a band around index 0 or a stride takes ~2 sqrt(K) rotations.
 *    The babies share one ModUp; each giant group MACs its
 *    pre-rotated diagonals into one accumulator and pays one full
 *    keyswitch.
 *
 * Hoisting and MinKS are mutually exclusive (Fig. 1); both are provided
 * so their trade-off can be reproduced functionally and measured by the
 * trace layer.
 */

#ifndef ANAHEIM_LINTRANS_LINTRANS_H
#define ANAHEIM_LINTRANS_LINTRANS_H

#include <vector>

#include "ckks/evaluator.h"
#include "diagmatrix.h"

namespace anaheim {

enum class LinTransAlgorithm { Base, Hoisting, MinKS, BsgsHoisting };

class LinearTransformer
{
  public:
    LinearTransformer(const CkksContext &context,
                      const CkksEncoder &encoder,
                      const CkksEvaluator &evaluator)
        : context_(context), encoder_(encoder), evaluator_(evaluator)
    {
    }

    /**
     * Evaluate matrix * ct homomorphically. The result carries scale
     * ct.scale * Delta and is NOT rescaled (callers fold rescaling into
     * their own level schedule).
     */
    Ciphertext apply(const Ciphertext &ct, const DiagMatrix &matrix,
                     const GaloisKeys &keys,
                     LinTransAlgorithm algorithm) const;

    /** Rotation distances whose Galois keys `apply` will look up. */
    static std::vector<int> requiredRotations(const DiagMatrix &matrix,
                                              LinTransAlgorithm algorithm);

    /**
     * Baby-step width b of the BSGS variant for this matrix. Each
     * diagonal index d is a signed offset s in (-slots/2, slots/2],
     * written s = giant + baby with giant a multiple of b and
     * 0 <= baby < b. b minimizes the distinct nonzero babies (hoisted
     * rotations) plus the distinct nonzero giants (full keyswitches);
     * on a tie it takes fewer giants. requiredRotations and apply read
     * the same split, so the key list and the transform agree.
     */
    static size_t bsgsBabyCount(const DiagMatrix &matrix);

  private:
    Ciphertext applyBase(const Ciphertext &ct, const DiagMatrix &matrix,
                         const GaloisKeys &keys) const;
    Ciphertext applyHoisting(const Ciphertext &ct, const DiagMatrix &matrix,
                             const GaloisKeys &keys) const;
    Ciphertext applyMinKs(const Ciphertext &ct, const DiagMatrix &matrix,
                          const GaloisKeys &keys) const;
    Ciphertext applyBsgs(const Ciphertext &ct, const DiagMatrix &matrix,
                         const GaloisKeys &keys) const;

    const CkksContext &context_;
    const CkksEncoder &encoder_;
    const CkksEvaluator &evaluator_;
};

} // namespace anaheim

#endif // ANAHEIM_LINTRANS_LINTRANS_H
