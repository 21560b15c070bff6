#include "evaluator.h"

#include <cmath>

#include "common/logging.h"
#include "math/kernels.h"
#include "math/modarith.h"

namespace anaheim {

namespace {

// Scales matching within this relative bound are treated as equal; the
// residual mismatch injects at most this much relative error. Larger
// mismatches trigger exact scale adjustment (see alignScales).
constexpr double kScaleTolerance = 1e-9;

void
checkScalesMatch(double a, double b)
{
    ANAHEIM_ASSERT(std::abs(a - b) <= 1e-4 * std::abs(a),
                   "scale mismatch: ", a, " vs ", b);
}

/**
 * A real constant at `scale` as residues of the first `level` primes:
 * round(value * scale) mod q_i. In the Eval domain the constant
 * polynomial is that residue at every point, so it multiplies or adds
 * as a scalar without encoding a slot vector.
 */
std::vector<uint64_t>
constantResidues(double value, double scale, const RnsBasis &basis,
                 size_t level)
{
    const double scaled = value * scale;
    ANAHEIM_ASSERT(std::abs(scaled) < 0x1p63, "constant ", value,
                   " at scale ", scale, " overflows one word");
    const int64_t rounded = std::llround(scaled);
    std::vector<uint64_t> residues(level);
    for (size_t i = 0; i < level; ++i)
        residues[i] = fromSigned(rounded, basis.table(i).barrett());
    return residues;
}

/** x times a real constant at `scale`, as integer scalars. */
Ciphertext
mulRealConst(const Ciphertext &x, double value, double scale)
{
    Ciphertext out = x;
    const auto c = constantResidues(value, scale, x.b.basis(), x.level);
    out.b.mulScalarEq(c);
    out.a.mulScalarEq(c);
    out.scale = x.scale * scale;
    return out;
}

} // namespace

Ciphertext
CkksEvaluator::adjustScaleTo(const Ciphertext &x, double targetScale) const
{
    // Multiply by the constant 1.0 encoded at exactly the scale that
    // lands on targetScale after one rescale. The constant's rounding
    // error is ~2^-logScale relative, so the adjustment is essentially
    // exact — this is what keeps deep circuits (EvalMod's double-angle
    // chain) from amplifying scale drift into the message.
    ANAHEIM_ASSERT(x.level >= 2, "cannot adjust scale at level 1");
    const uint64_t qLast = x.b.basis().prime(x.level - 1);
    const double needed =
        targetScale * static_cast<double>(qLast) / x.scale;
    ANAHEIM_ASSERT(needed >= 1.0, "scale adjustment would underflow");
    return rescale(mulRealConst(x, 1.0, needed));
}

void
CkksEvaluator::alignScales(Ciphertext &x, Ciphertext &y) const
{
    if (std::abs(x.scale - y.scale) <= kScaleTolerance * x.scale)
        return;
    // Adjust the operand with more spare levels; the adjustment costs
    // one level. When neither side can pay, fall back to tolerating
    // the (asserted-small) mismatch.
    Ciphertext *adjust = x.level >= y.level ? &x : &y;
    const Ciphertext *other = adjust == &x ? &y : &x;
    if (adjust->level < 2) {
        checkScalesMatch(x.scale, y.scale);
        return;
    }
    *adjust = adjustScaleTo(*adjust, other->scale);
}

Ciphertext
CkksEvaluator::dropToLevel(const Ciphertext &x, size_t level) const
{
    ANAHEIM_ASSERT(level >= 1 && level <= x.level,
                   "cannot raise level by truncation");
    if (level == x.level)
        return x;
    Ciphertext out;
    out.b = x.b.firstLimbs(level);
    out.a = x.a.firstLimbs(level);
    out.level = level;
    out.scale = x.scale;
    return out;
}

Ciphertext
CkksEvaluator::addOrSub(const Ciphertext &x, const Ciphertext &y,
                        bool subtract) const
{
    const Ciphertext *lhs = &x, *rhs = &y;
    Ciphertext xAligned, yAligned;
    if (std::abs(x.scale - y.scale) > kScaleTolerance * x.scale) {
        // Rare: equalizing the scales costs a level and copies both.
        xAligned = x;
        yAligned = y;
        alignScales(xAligned, yAligned);
        checkScalesMatch(xAligned.scale, yAligned.scale);
        lhs = &xAligned;
        rhs = &yAligned;
    }
    // The output is the one copy: lhs at the common level. rhs is read
    // in place; a higher rhs contributes its first limbs only.
    Ciphertext out = dropToLevel(*lhs, std::min(lhs->level, rhs->level));
    if (subtract) {
        out.b -= rhs->b;
        out.a -= rhs->a;
    } else {
        out.b += rhs->b;
        out.a += rhs->a;
    }
    return out;
}

Ciphertext
CkksEvaluator::add(const Ciphertext &x, const Ciphertext &y) const
{
    return addOrSub(x, y, false);
}

Ciphertext
CkksEvaluator::sub(const Ciphertext &x, const Ciphertext &y) const
{
    return addOrSub(x, y, true);
}

Ciphertext
CkksEvaluator::negate(const Ciphertext &x) const
{
    Ciphertext out = x;
    out.b.negate();
    out.a.negate();
    return out;
}

Ciphertext
CkksEvaluator::addPlain(const Ciphertext &x, const Plaintext &pt) const
{
    ANAHEIM_ASSERT(pt.level >= x.level, "plaintext level too low");
    checkScalesMatch(x.scale, pt.scale);
    Ciphertext out = x;
    out.b += pt.poly;
    return out;
}

Ciphertext
CkksEvaluator::mulPlain(const Ciphertext &x, const Plaintext &pt) const
{
    ANAHEIM_ASSERT(pt.level >= x.level, "plaintext level too low");
    Ciphertext out = x;
    out.b.mulEq(pt.poly);
    out.a.mulEq(pt.poly);
    out.scale = x.scale * pt.scale;
    return out;
}

Ciphertext
CkksEvaluator::mulConst(const Ciphertext &x,
                        std::complex<double> value) const
{
    const double scale = std::ldexp(1.0, context_.params().logScale);
    if (value.imag() != 0.0) {
        const std::vector<std::complex<double>> msg(encoder_.slots(),
                                                    value);
        return mulPlain(x, encoder_.encode(msg, x.level, scale));
    }
    return mulRealConst(x, value.real(), scale);
}

void
CkksEvaluator::macConst(Ciphertext &acc, const Ciphertext &x,
                        double value, double constScale) const
{
    ANAHEIM_ASSERT(x.level >= acc.level, "operand level too low");
    checkScalesMatch(acc.scale, x.scale * constScale);
    const auto c =
        constantResidues(value, constScale, acc.b.basis(), acc.level);
    acc.b.macScalarEq(x.b, c);
    acc.a.macScalarEq(x.a, c);
}

Ciphertext
CkksEvaluator::mulInteger(const Ciphertext &x, int64_t value) const
{
    Ciphertext out = x;
    std::vector<uint64_t> scalars(x.level);
    for (size_t i = 0; i < x.level; ++i)
        scalars[i] = fromSigned(value, x.b.basis().prime(i));
    out.b.mulScalarEq(scalars);
    out.a.mulScalarEq(scalars);
    return out;
}

Ciphertext
CkksEvaluator::addConst(const Ciphertext &x,
                        std::complex<double> value) const
{
    if (value.imag() != 0.0) {
        const std::vector<std::complex<double>> msg(encoder_.slots(),
                                                    value);
        return addPlain(x, encoder_.encode(msg, x.level, x.scale));
    }
    Ciphertext out = x;
    out.b.addScalarEq(
        constantResidues(value.real(), x.scale, x.b.basis(), x.level));
    return out;
}

Ciphertext
CkksEvaluator::multiply(const Ciphertext &x, const Ciphertext &y,
                        const EvalKey &relinKey) const
{
    // Tensor: (b1, a1) x (b2, a2) -> (b1*b2, b1*a2 + a1*b2, a1*a2) at
    // the common level. Each output starts as a copy of x's limbs up
    // to that level; y is read in place.
    const size_t level = std::min(x.level, y.level);
    Polynomial d0 = x.b.firstLimbs(level);
    d0.mulEq(y.b);
    Polynomial d1 = x.b.firstLimbs(level);
    d1.mulEq(y.a);
    d1.macEq(x.a, y.b);
    Polynomial d2 = x.a.firstLimbs(level);
    d2.mulEq(y.a);

    // Relinearize the s^2 component back onto (1, s).
    auto [k0, k1] = switcher_.keySwitch(d2, relinKey);
    d0 += k0;
    d1 += k1;
    Ciphertext out;
    out.b = std::move(d0);
    out.a = std::move(d1);
    out.level = level;
    out.scale = x.scale * y.scale;
    return out;
}

Ciphertext
CkksEvaluator::square(const Ciphertext &x, const EvalKey &relinKey) const
{
    return multiply(x, x, relinKey);
}

Ciphertext
CkksEvaluator::rescale(const Ciphertext &x) const
{
    ANAHEIM_ASSERT(x.level >= 2, "no prime left to rescale by");
    const size_t level = x.level;
    const RnsBasis &basis = x.b.basis();
    const uint64_t qLast = basis.prime(level - 1);
    Ciphertext out;
    out.level = level - 1;
    out.scale = x.scale / static_cast<double>(qLast);

    // One buffer each for the last limb and its lift, reused by every
    // limb of both polynomials.
    CoeffVector last;
    CoeffVector lifted(x.degree());
    for (const Polynomial *src : {&x.b, &x.a}) {
        // INTT the last limb once, then fold it into every lower limb.
        last = src->limb(level - 1);
        basis.table(level - 1).inverse(last);

        Polynomial dst(basis.slice(0, level - 1), Domain::Eval);
        for (size_t i = 0; i + 1 < level; ++i) {
            const uint64_t qi = basis.prime(i);
            const Barrett &br = basis.table(i).barrett();
            const uint64_t qLastModQi = br.reduceWord(qLast);
            const ShoupMul qLastInv(invMod(qLastModQi, qi), qi);
            // Centered lift of the last limb into q_i for lower noise.
            for (size_t c = 0; c < last.size(); ++c) {
                const uint64_t v = last[c];
                const uint64_t r = br.reduceWord(v);
                lifted[c] = v > qLast / 2 ? subMod(r, qLastModQi, qi) : r;
            }
            basis.table(i).forward(lifted);
            const auto &limb = src->limb(i);
            auto &dstLimb = dst.limb(i);
            kernels::active().subMulShoup(
                dstLimb.data(), limb.data(), lifted.data(), limb.size(),
                qLastInv.operand(), qLastInv.precon(), qi);
        }
        if (src == &x.b)
            out.b = std::move(dst);
        else
            out.a = std::move(dst);
    }
    return out;
}

Ciphertext
CkksEvaluator::applyGalois(const Ciphertext &x, uint64_t galoisElt,
                           const GaloisKeys &keys) const
{
    const auto it = keys.find(galoisElt);
    ANAHEIM_ASSERT(it != keys.end(), "missing Galois key for k=",
                   galoisElt);
    Ciphertext out;
    out.level = x.level;
    out.scale = x.scale;
    out.b = x.b.automorphism(galoisElt);
    const Polynomial rotatedA = x.a.automorphism(galoisElt);
    auto [d0, d1] = switcher_.keySwitch(rotatedA, it->second);
    out.b += d0;
    out.a = std::move(d1);
    return out;
}

Ciphertext
CkksEvaluator::rotate(const Ciphertext &x, int rotation,
                      const GaloisKeys &keys) const
{
    const uint64_t k =
        KeyGenerator::rotationGaloisElt(rotation, context_.degree());
    if (k == 1)
        return x;
    return applyGalois(x, k, keys);
}

Ciphertext
CkksEvaluator::conjugate(const Ciphertext &x, const GaloisKeys &keys) const
{
    return applyGalois(
        x, KeyGenerator::conjugationGaloisElt(context_.degree()), keys);
}

std::vector<Ciphertext>
CkksEvaluator::rotateHoisted(const Ciphertext &x,
                             const std::vector<int> &rotations,
                             const GaloisKeys &keys) const
{
    // ModUp once (the hoisting optimization); per rotation only the
    // cheap automorphism of the digits, KeyMult and ModDown remain.
    const auto digits = switcher_.modUp(x.a);

    std::vector<Ciphertext> out;
    out.reserve(rotations.size());
    for (int r : rotations) {
        const uint64_t k =
            KeyGenerator::rotationGaloisElt(r, context_.degree());
        if (k == 1) {
            out.push_back(x);
            continue;
        }
        const auto it = keys.find(k);
        ANAHEIM_ASSERT(it != keys.end(), "missing Galois key for r=", r);
        std::vector<Polynomial> rotated;
        rotated.reserve(digits.size());
        for (const auto &digit : digits)
            rotated.push_back(digit.automorphism(k));
        auto [d0, d1] = switcher_.keyMult(rotated, it->second);
        Ciphertext ct;
        ct.level = x.level;
        ct.scale = x.scale;
        ct.b = x.b.automorphism(k) + switcher_.modDown(d0);
        ct.a = switcher_.modDown(d1);
        out.push_back(std::move(ct));
    }
    return out;
}

} // namespace anaheim
