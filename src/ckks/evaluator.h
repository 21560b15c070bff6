/**
 * @file
 * CKKS evaluator: the homomorphic basic functions of §II-A — HADD,
 * PMULT, HMULT (tensor + relinearize), HROT (automorphism + keyswitch)
 * — plus rescaling, level management, conjugation and hoisted rotations.
 */

#ifndef ANAHEIM_CKKS_EVALUATOR_H
#define ANAHEIM_CKKS_EVALUATOR_H

#include <complex>
#include <vector>

#include "ciphertext.h"
#include "context.h"
#include "encoder.h"
#include "keys.h"
#include "keyswitch.h"

namespace anaheim {

class CkksEvaluator
{
  public:
    CkksEvaluator(const CkksContext &context, const CkksEncoder &encoder)
        : context_(context), encoder_(encoder), switcher_(context)
    {
    }

    const CkksContext &context() const { return context_; }
    const KeySwitcher &keySwitcher() const { return switcher_; }

    /** @name Additive ops (HADD family). The output sits at the lower
     *  level: a higher operand's first limbs are read in place and only
     *  the output is a copy. Scales must match. */
    /// @{
    Ciphertext add(const Ciphertext &x, const Ciphertext &y) const;
    Ciphertext sub(const Ciphertext &x, const Ciphertext &y) const;
    Ciphertext negate(const Ciphertext &x) const;
    Ciphertext addPlain(const Ciphertext &x, const Plaintext &pt) const;
    /// @}

    /** PMULT: plaintext-ciphertext multiplication; scale multiplies. */
    Ciphertext mulPlain(const Ciphertext &x, const Plaintext &pt) const;

    /** Multiply by a constant at scale 2^logScale. A real constant is
     *  one integer scalar per limb; a complex one is encoded. */
    Ciphertext mulConst(const Ciphertext &x,
                        std::complex<double> value) const;

    /**
     * acc += value * x, with the real constant as the integer scalar
     * round(value * constScale) per limb: no encoding and no rescale.
     * x may sit above acc's level; acc.scale must equal
     * x.scale * constScale.
     */
    void macConst(Ciphertext &acc, const Ciphertext &x, double value,
                  double constScale) const;

    /** Multiply by a small integer without consuming scale. */
    Ciphertext mulInteger(const Ciphertext &x, int64_t value) const;

    /** Add a constant at the ciphertext's scale (a real one as an
     *  integer scalar per limb, a complex one encoded). */
    Ciphertext addConst(const Ciphertext &x,
                        std::complex<double> value) const;

    /** HMULT: ciphertext-ciphertext multiplication with
     *  relinearization under `relinKey`. Does not rescale. */
    Ciphertext multiply(const Ciphertext &x, const Ciphertext &y,
                        const EvalKey &relinKey) const;

    Ciphertext square(const Ciphertext &x, const EvalKey &relinKey) const;

    /** Drop the last prime and divide the scale by it. */
    Ciphertext rescale(const Ciphertext &x) const;

    /** Truncate to `level` limbs (message and scale unchanged). */
    Ciphertext dropToLevel(const Ciphertext &x, size_t level) const;

    /** HROT: cyclic slot rotation by r via automorphism + keyswitch.
     *  The GaloisKeys must contain the key for 5^r. */
    Ciphertext rotate(const Ciphertext &x, int rotation,
                      const GaloisKeys &keys) const;

    /** Slot-wise complex conjugation. */
    Ciphertext conjugate(const Ciphertext &x, const GaloisKeys &keys) const;

    /**
     * Hoisted rotations (§III-B): one ModUp shared across all rotations;
     * per-rotation automorphism of the decomposed digits, KeyMult, and
     * ModDown. Returns one ciphertext per requested rotation.
     */
    std::vector<Ciphertext> rotateHoisted(const Ciphertext &x,
                                          const std::vector<int> &rotations,
                                          const GaloisKeys &keys) const;

    /**
     * Exactly retarget a ciphertext's scale by multiplying with the
     * constant 1.0 at the adjusting scale (an integer scalar) and
     * rescaling. Consumes one level.
     */
    Ciphertext adjustScaleTo(const Ciphertext &x, double targetScale) const;

  private:
    /** add or sub: copies only the output operand unless the scales
     *  need equalizing. */
    Ciphertext addOrSub(const Ciphertext &x, const Ciphertext &y,
                        bool subtract) const;

    /** Equalize operand scales before addition (see adjustScaleTo). */
    void alignScales(Ciphertext &x, Ciphertext &y) const;

    Ciphertext applyGalois(const Ciphertext &x, uint64_t galoisElt,
                           const GaloisKeys &keys) const;

    const CkksContext &context_;
    const CkksEncoder &encoder_;
    KeySwitcher switcher_;
};

} // namespace anaheim

#endif // ANAHEIM_CKKS_EVALUATOR_H
