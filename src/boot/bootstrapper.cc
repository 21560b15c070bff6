#include "bootstrapper.h"

#include <cmath>
#include <set>

#include "common/logging.h"
#include "obs/trace.h"
#include "math/modarith.h"

namespace anaheim {

namespace {

/** Multiply a ciphertext by the exact monomial X^power (slot-wise
 *  multiplication by a root of unity; free of noise, level and scale). */
Ciphertext
mulMonomial(const Ciphertext &ct, size_t power)
{
    Ciphertext out = ct;
    out.b.mulMonomialEq(power);
    out.a.mulMonomialEq(power);
    return out;
}

} // namespace

Bootstrapper::Bootstrapper(const CkksContext &context,
                           const CkksEncoder &encoder,
                           const CkksEvaluator &evaluator,
                           KeyGenerator &keygen,
                           const BootstrapConfig &config)
    : context_(context), encoder_(encoder), evaluator_(evaluator),
      config_(config), transformer_(context, encoder, evaluator),
      chebyshev_(evaluator, relinKey_)
{
    const size_t slots = encoder_.slots();
    const double q0 =
        static_cast<double>(context_.qBasis().prime(0));
    const double delta = std::ldexp(1.0, context_.params().logScale);

    intervalScale_ = 2.0;
    while (intervalScale_ < config_.kBound + 1.0)
        intervalScale_ *= 2.0;

    // DFT factors. CoeffToSlot folds delta / (q0 * a) so post-transform
    // slots are (m + q0*I) / (q0*a) in [-1, 1] at tracked scale ~delta;
    // the 0.5 of the conjugation split is folded in as well.
    // SlotToCoeff folds q0 / delta to restore the message magnitude.
    const DftPlan plan(slots, config_.fftIter);
    ctsFactors_ = plan.coeffToSlotFactors(
        {0.5 * delta / (q0 * intervalScale_), 0.0});
    stcFactors_ = plan.slotToCoeffFactors({q0 / delta, 0.0});

    // Scaled sine: F(v) = cos((2*pi*a*v - pi/2) / 2^r); after r
    // double-angle steps this becomes sin(2*pi*a*v).
    const double a = intervalScale_;
    const double r = std::ldexp(1.0, config_.doubleAngles);
    sineCoeffs_ = chebyshevFit(
        [a, r](double v) {
            return std::cos((2.0 * M_PI * a * v - M_PI / 2.0) / r);
        },
        config_.sineDegree);

    // Key material: relinearization + every rotation either transform
    // needs + conjugation.
    relinKey_ = keygen.makeRelinKey();
    std::set<int> rotations;
    for (const auto &factor : ctsFactors_) {
        for (int rot : LinearTransformer::requiredRotations(
                 factor, LinTransAlgorithm::BsgsHoisting))
            rotations.insert(rot);
    }
    for (const auto &factor : stcFactors_) {
        for (int rot : LinearTransformer::requiredRotations(
                 factor, LinTransAlgorithm::BsgsHoisting))
            rotations.insert(rot);
    }
    galoisKeys_ = keygen.makeGaloisKeys(
        std::vector<int>(rotations.begin(), rotations.end()), true);

    const size_t consumed =
        coeffToSlotDepth() + evalModDepth() + slotToCoeffDepth();
    ANAHEIM_ASSERT(context_.maxLevel() > consumed + 1,
                   "not enough levels for bootstrapping: need > ",
                   consumed + 1, ", have ", context_.maxLevel());
    outputLevel_ = context_.maxLevel() - consumed;
}

size_t
Bootstrapper::evalModDepth() const
{
    return ChebyshevEvaluator::depthForDegree(config_.sineDegree) +
           config_.doubleAngles;
}

Ciphertext
Bootstrapper::modRaise(const Ciphertext &ct) const
{
    OBS_SPAN("boot/modraise");
    ANAHEIM_ASSERT(ct.level == 1, "ModRaise expects a level-1 ciphertext");
    const RnsBasis fullBasis = context_.levelBasis(context_.maxLevel());
    const uint64_t q0 = context_.qBasis().prime(0);

    Ciphertext out;
    out.level = context_.maxLevel();
    out.scale = ct.scale;
    for (const Polynomial *src : {&ct.b, &ct.a}) {
        Polynomial coeff = *src;
        coeff.toCoeff();
        // Centered lift of the mod-q0 residues into every prime.
        std::vector<int64_t> lifted(coeff.degree());
        for (size_t c = 0; c < lifted.size(); ++c)
            lifted[c] = toCentered(coeff.limb(0)[c], q0);
        Polynomial raised = polynomialFromSigned(fullBasis, lifted);
        raised.toEval();
        if (src == &ct.b)
            out.b = std::move(raised);
        else
            out.a = std::move(raised);
    }
    return out;
}

Ciphertext
Bootstrapper::coeffToSlot(const Ciphertext &ct) const
{
    OBS_SPAN("boot/coeff_to_slot");
    Ciphertext current = ct;
    for (const auto &factor : ctsFactors_) {
        current = evaluator_.rescale(transformer_.apply(
            current, factor, galoisKeys_, LinTransAlgorithm::BsgsHoisting));
    }
    return current;
}

Ciphertext
Bootstrapper::evalMod(const Ciphertext &ct) const
{
    OBS_SPAN("boot/eval_mod");
    // Chebyshev cosine followed by r double-angle steps; the result is
    // sin(2*pi*t) / (2*pi) with t = m/q0 + I, i.e. ~m/(2*pi*q0).
    Ciphertext c = chebyshev_.evaluate(ct, sineCoeffs_);
    for (size_t i = 0; i < config_.doubleAngles; ++i) {
        Ciphertext sq = evaluator_.rescale(
            evaluator_.square(c, relinKey_));
        sq = evaluator_.mulInteger(sq, 2);
        c = evaluator_.addConst(sq, {-1.0, 0.0});
    }
    return c;
}

Ciphertext
Bootstrapper::slotToCoeff(const Ciphertext &ct) const
{
    OBS_SPAN("boot/slot_to_coeff");
    Ciphertext current = ct;
    for (const auto &factor : stcFactors_) {
        current = evaluator_.rescale(transformer_.apply(
            current, factor, galoisKeys_, LinTransAlgorithm::BsgsHoisting));
    }
    return current;
}

Ciphertext
Bootstrapper::bootstrap(const Ciphertext &ct) const
{
    OBS_SPAN("boot/bootstrap");
    const size_t n = context_.degree();

    // 1. Exhaust remaining levels, then re-express over the full Q.
    Ciphertext low = evaluator_.dropToLevel(ct, 1);
    Ciphertext raised = modRaise(low);

    // 2. CoeffToSlot: slots now hold 0.5 * w with
    //    w_j = (m_j + i*m_{j+n/2} + q0*I-combos) / (q0*a).
    Ciphertext slots = coeffToSlot(raised);

    // 3. Conjugation split into the real and imaginary coefficient
    //    halves; multiplication by -i is the free monomial X^{3N/2}.
    const Ciphertext conj = evaluator_.conjugate(slots, galoisKeys_);
    const Ciphertext lo = evaluator_.add(slots, conj);
    const Ciphertext hi =
        mulMonomial(evaluator_.sub(slots, conj), 3 * n / 2);

    // 4. Approximate modular reduction on both halves.
    const Ciphertext gLo = evalMod(lo);
    Ciphertext gHi = evalMod(hi);

    // 5. Recombine: lo + i * hi, with i = X^{N/2}.
    gHi = mulMonomial(gHi, n / 2);
    const Ciphertext combined = evaluator_.add(gLo, gHi);

    // 6. SlotToCoeff back to the coefficient embedding. The sine output
    //    is 2*pi*m/q0; SlotToCoeff folds q0/delta, leaving the decoded
    //    message multiplied by 2*pi*scale_in/delta, which a scale
    //    redeclaration absorbs exactly.
    Ciphertext out = slotToCoeff(combined);
    const double delta = std::ldexp(1.0, context_.params().logScale);
    out.scale = out.scale * 2.0 * M_PI * ct.scale / delta;
    return out;
}

} // namespace anaheim
