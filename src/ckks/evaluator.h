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

    /** @name Additive ops (HADD family). Levels are aligned by dropping
     *  limbs; scales must match. */
    /// @{
    Ciphertext add(const Ciphertext &x, const Ciphertext &y) const;
    Ciphertext sub(const Ciphertext &x, const Ciphertext &y) const;
    Ciphertext negate(const Ciphertext &x) const;
    Ciphertext addPlain(const Ciphertext &x, const Plaintext &pt) const;
    /// @}

    /** PMULT: plaintext-ciphertext multiplication; scale multiplies. */
    Ciphertext mulPlain(const Ciphertext &x, const Plaintext &pt) const;

    /** Multiply by a scalar (encoded at the ciphertext's level). */
    Ciphertext mulConst(const Ciphertext &x,
                        std::complex<double> value) const;

    /** Multiply by a small integer without consuming scale. */
    Ciphertext mulInteger(const Ciphertext &x, int64_t value) const;

    /** Add a scalar constant (encoded at the ciphertext's scale). */
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

    /** Align two ciphertexts to a common level (drops limbs). */
    void matchLevels(Ciphertext &x, Ciphertext &y) const;

    /**
     * Exactly retarget a ciphertext's scale by multiplying with the
     * constant 1.0 encoded at the adjusting scale and rescaling.
     * Consumes one level.
     */
    Ciphertext adjustScaleTo(const Ciphertext &x, double targetScale) const;

  private:
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
