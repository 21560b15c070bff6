/**
 * @file
 * CKKS bootstrapping (§II-C): ModRaise, CoeffToSlot, EvalMod (approximate
 * modular reduction via a scaled sine), and SlotToCoeff.
 *
 * The linear transforms use the factored-DFT plan (dft.h) with
 * fftIter = 2 and the BSGS hoisted linear-transform algorithm, matching
 * the configuration the paper evaluates. The scaled-sine step
 * evaluates cos((2*pi*a*v - pi/2) / 2^r) by Chebyshev interpolation
 * followed by r double-angle steps, yielding sin(2*pi*t).
 *
 * Substitution note (DESIGN.md): the paper's Boot workload uses
 * sparse-secret encapsulation [9]; this implementation uses a sparse
 * secret directly (Hamming weight H_s = 2^5 per Table IV), which
 * exercises the same op sequence.
 */

#ifndef ANAHEIM_BOOT_BOOTSTRAPPER_H
#define ANAHEIM_BOOT_BOOTSTRAPPER_H

#include "chebyshev.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "dft.h"
#include "lintrans/lintrans.h"

namespace anaheim {

/** The bootstrapping constants, tuned together with bootstrapParams()
 *  (ckks/params.cc). A struct only so perfbench/src/ckks_bench.cc can
 *  spell BootstrapConfig{}.fftIter. */
struct BootstrapConfig {
    /** Number of factors per DFT (CoeffToSlot and SlotToCoeff each). */
    static constexpr size_t fftIter = 2;
    /** Chebyshev degree of the cosine approximant. */
    static constexpr size_t sineDegree = 63;
    /** Double-angle iterations r. */
    static constexpr size_t doubleAngles = 3;
    /** Bound K on the modulus-multiple I after ModRaise; the interval
     *  scaling a is the next power of two above K. */
    static constexpr double kBound = 12.0;
};

class Bootstrapper
{
  public:
    /**
     * Prepares DFT factors, the sine approximant and every evaluation
     * key bootstrapping needs (rotations, conjugation, relinearization).
     */
    Bootstrapper(const CkksContext &context, const CkksEncoder &encoder,
                 const CkksEvaluator &evaluator, KeyGenerator &keygen);

    /**
     * Refresh a ciphertext: consume it at (any) level and return an
     * equivalent encryption at `outputLevel()` with its scale restored.
     */
    Ciphertext bootstrap(const Ciphertext &ct) const;

    /** Level of bootstrap() outputs given the context's modulus. */
    size_t outputLevel() const { return outputLevel_; }

    /** Levels consumed by each phase (for the level schedule / traces).*/
    size_t coeffToSlotDepth() const { return BootstrapConfig::fftIter; }
    size_t evalModDepth() const;
    size_t slotToCoeffDepth() const { return BootstrapConfig::fftIter; }

    /** ModRaise alone (exposed for tests): re-express a level-1
     *  ciphertext over the full modulus. */
    Ciphertext modRaise(const Ciphertext &ct) const;

  private:
    Ciphertext coeffToSlot(const Ciphertext &ct) const;
    Ciphertext evalMod(const Ciphertext &ct) const;
    Ciphertext slotToCoeff(const Ciphertext &ct) const;

    const CkksContext &context_;
    const CkksEncoder &encoder_;
    const CkksEvaluator &evaluator_;
    double intervalScale_; // a = 2^ceil(log2(K+1))
    std::vector<DiagMatrix> ctsFactors_;
    std::vector<DiagMatrix> stcFactors_;
    std::vector<double> sineCoeffs_;
    EvalKey relinKey_;
    GaloisKeys galoisKeys_;
    LinearTransformer transformer_;
    ChebyshevEvaluator chebyshev_;
    size_t outputLevel_ = 0;
};

} // namespace anaheim

#endif // ANAHEIM_BOOT_BOOTSTRAPPER_H
