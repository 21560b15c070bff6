#include "lintrans.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>

#include "common/logging.h"

namespace anaheim {

namespace {

using Complex = std::complex<double>;

/** Cyclically pre-rotate a diagonal vector by -shift (diag >>> shift),
 *  the plaintext preprocessing of §V-B. */
std::vector<Complex>
preRotate(const std::vector<Complex> &diag, size_t shift)
{
    const size_t n = diag.size();
    std::vector<Complex> out(n);
    for (size_t j = 0; j < n; ++j)
        out[j] = diag[(j + n - shift % n) % n];
    return out;
}

/** Diagonal index d as a signed rotation offset in (-slots/2, slots/2]. */
int64_t
signedOffset(size_t d, size_t slots)
{
    return d > slots / 2
               ? static_cast<int64_t>(d) - static_cast<int64_t>(slots)
               : static_cast<int64_t>(d);
}

/** floor(s / b) for b > 0. */
int64_t
floorDiv(int64_t s, int64_t b)
{
    return s >= 0 ? s / b : -((-s + b - 1) / b);
}

/** Rotation distance of a signed offset, in [0, slots). */
int
rotationOf(int64_t offset, size_t slots)
{
    const auto n = static_cast<int64_t>(slots);
    return static_cast<int>((offset % n + n) % n);
}

/**
 * The BSGS split of a matrix (see LinearTransformer::bsgsBabyCount):
 * each signed offset s = giant + baby, with giant a multiple of the
 * width and 0 <= baby < width.
 */
struct BsgsPlan {
    int64_t width = 1;
    /** Distinct nonzero baby offsets, ascending: the hoisted rotations. */
    std::vector<int> babies;
    /** Giant shift -> its (baby offset, diagonal) terms. */
    std::map<int64_t,
             std::vector<std::pair<int64_t, const std::vector<Complex> *>>>
        groups;
};

BsgsPlan
bsgsPlan(const DiagMatrix &matrix)
{
    const size_t slots = matrix.slots();
    std::vector<int64_t> offsets;
    for (const auto &[d, diag] : matrix.diagonals())
        offsets.push_back(signedOffset(d, slots));
    BsgsPlan plan;
    if (offsets.empty())
        return plan;

    // Width search. Every width above max|s| splits alike (each offset
    // its own baby, plus one giant if any offset is negative), so the
    // search stops at max|s| + 1. Stamps mark the babies and giants
    // seen at the current width, so each width costs one pass over
    // the offsets.
    const auto [lo, hi] = std::minmax_element(offsets.begin(), offsets.end());
    const int64_t maxWidth = std::max(-*lo, *hi) + 1;
    std::vector<int64_t> babySeen(maxWidth, 0);
    std::vector<int64_t> giantSeen(*hi - *lo + 2, 0);
    size_t bestCost = SIZE_MAX, bestGiants = SIZE_MAX;
    for (int64_t b = 1; b <= maxWidth; ++b) {
        const int64_t giantLo = floorDiv(*lo, b);
        size_t babies = 0, giants = 0;
        for (const int64_t s : offsets) {
            const int64_t g = floorDiv(s, b);
            const int64_t r = s - g * b;
            if (r != 0 && babySeen[r] != b) {
                babySeen[r] = b;
                ++babies;
            }
            if (g != 0 && giantSeen[g - giantLo] != b) {
                giantSeen[g - giantLo] = b;
                ++giants;
            }
        }
        const size_t cost = babies + giants;
        if (cost < bestCost || (cost == bestCost && giants < bestGiants)) {
            bestCost = cost;
            bestGiants = giants;
            plan.width = b;
        }
    }

    std::set<int> babies;
    for (const auto &[d, diag] : matrix.diagonals()) {
        const int64_t s = signedOffset(d, slots);
        const int64_t giant = floorDiv(s, plan.width) * plan.width;
        plan.groups[giant].emplace_back(s - giant, &diag);
        if (s != giant)
            babies.insert(static_cast<int>(s - giant));
    }
    plan.babies.assign(babies.begin(), babies.end());
    return plan;
}

} // namespace

size_t
LinearTransformer::bsgsBabyCount(const DiagMatrix &matrix)
{
    return static_cast<size_t>(bsgsPlan(matrix).width);
}

std::vector<int>
LinearTransformer::requiredRotations(const DiagMatrix &matrix,
                                     LinTransAlgorithm algorithm)
{
    std::set<int> rotations;
    switch (algorithm) {
      case LinTransAlgorithm::Base:
      case LinTransAlgorithm::Hoisting:
        for (const auto &[d, diag] : matrix.diagonals()) {
            (void)diag;
            if (d != 0)
                rotations.insert(static_cast<int>(d));
        }
        break;
      case LinTransAlgorithm::MinKS:
        if (matrix.diagonalCount() > 1 ||
            !matrix.diagonals().count(0)) {
            rotations.insert(1);
        }
        break;
      case LinTransAlgorithm::BsgsHoisting: {
        const BsgsPlan plan = bsgsPlan(matrix);
        rotations.insert(plan.babies.begin(), plan.babies.end());
        for (const auto &[giant, terms] : plan.groups) {
            (void)terms;
            if (giant != 0)
                rotations.insert(rotationOf(giant, matrix.slots()));
        }
        break;
      }
    }
    return {rotations.begin(), rotations.end()};
}

Ciphertext
LinearTransformer::apply(const Ciphertext &ct, const DiagMatrix &matrix,
                         const GaloisKeys &keys,
                         LinTransAlgorithm algorithm) const
{
    ANAHEIM_ASSERT(matrix.slots() == encoder_.slots(),
                   "matrix/ring slot mismatch");
    ANAHEIM_ASSERT(matrix.diagonalCount() > 0, "empty linear transform");
    switch (algorithm) {
      case LinTransAlgorithm::Base:
        return applyBase(ct, matrix, keys);
      case LinTransAlgorithm::Hoisting:
        return applyHoisting(ct, matrix, keys);
      case LinTransAlgorithm::MinKS:
        return applyMinKs(ct, matrix, keys);
      case LinTransAlgorithm::BsgsHoisting:
        return applyBsgs(ct, matrix, keys);
    }
    ANAHEIM_PANIC("unknown linear transform algorithm");
}

Ciphertext
LinearTransformer::applyBase(const Ciphertext &ct, const DiagMatrix &matrix,
                             const GaloisKeys &keys) const
{
    Ciphertext acc;
    bool first = true;
    for (const auto &[d, diag] : matrix.diagonals()) {
        const Plaintext pt = encoder_.encode(diag, ct.level);
        const Ciphertext rotated =
            d == 0 ? ct
                   : evaluator_.rotate(ct, static_cast<int>(d), keys);
        Ciphertext term = evaluator_.mulPlain(rotated, pt);
        if (first) {
            acc = std::move(term);
            first = false;
        } else {
            acc = evaluator_.add(acc, term);
        }
    }
    return acc;
}

Ciphertext
LinearTransformer::applyHoisting(const Ciphertext &ct,
                                 const DiagMatrix &matrix,
                                 const GaloisKeys &keys) const
{
    const KeySwitcher &sw = evaluator_.keySwitcher();
    const size_t level = ct.level;
    const RnsBasis extBasis = context_.extendedBasis(level);
    const double ptScale = std::ldexp(1.0, context_.params().logScale);

    // Hoisting: one ModUp of a, shared across every rotation (Fig. 1).
    const auto digits = sw.modUp(ct.a);

    Polynomial acc0Ext(extBasis, Domain::Eval);
    Polynomial acc1Ext(extBasis, Domain::Eval);
    Polynomial accB(ct.b.basis(), Domain::Eval);
    Polynomial accA(ct.a.basis(), Domain::Eval);
    bool extendedUsed = false;

    for (const auto &[d, diag] : matrix.diagonals()) {
        if (d == 0) {
            // No keyswitch needed: PMULT directly in the base modulus.
            const Plaintext pt = encoder_.encode(diag, level, ptScale);
            accB.macEq(ct.b, pt.poly);
            accA.macEq(ct.a, pt.poly);
            continue;
        }
        const uint64_t k = KeyGenerator::rotationGaloisElt(
            static_cast<int>(d), context_.degree());
        const auto it = keys.find(k);
        ANAHEIM_ASSERT(it != keys.end(), "missing rotation key for d=", d);

        std::vector<Polynomial> rotated;
        rotated.reserve(digits.size());
        for (const auto &digit : digits)
            rotated.push_back(digit.automorphism(k));
        auto [e0, e1] = sw.keyMult(rotated, it->second);

        // PMULT and accumulation in the extended modulus PQ, so that a
        // single ModDown suffices for the whole transform (§III-B).
        const Plaintext ptExt =
            encoder_.encodeAtBasis(diag, extBasis, ptScale);
        acc0Ext.macEq(e0, ptExt.poly);
        acc1Ext.macEq(e1, ptExt.poly);
        extendedUsed = true;

        const Plaintext pt = encoder_.encode(diag, level, ptScale);
        accB.macEq(ct.b.automorphism(k), pt.poly);
    }

    Ciphertext out;
    out.level = level;
    out.scale = ct.scale * ptScale;
    if (extendedUsed) {
        out.b = sw.modDown(acc0Ext) + accB;
        out.a = sw.modDown(acc1Ext) + accA;
    } else {
        out.b = std::move(accB);
        out.a = std::move(accA);
    }
    return out;
}

Ciphertext
LinearTransformer::applyMinKs(const Ciphertext &ct, const DiagMatrix &matrix,
                              const GaloisKeys &keys) const
{
    // MinKS: HROT([u], d) realized as d successive rotations by one, so
    // a single evk_1 serves every diagonal (§III-B).
    Ciphertext current = ct;
    size_t position = 0;
    Ciphertext acc;
    bool first = true;
    for (const auto &[d, diag] : matrix.diagonals()) {
        while (position < d) {
            current = evaluator_.rotate(current, 1, keys);
            ++position;
        }
        const Plaintext pt = encoder_.encode(diag, current.level);
        Ciphertext term = evaluator_.mulPlain(current, pt);
        if (first) {
            acc = std::move(term);
            first = false;
        } else {
            acc = evaluator_.add(acc, term);
        }
    }
    return acc;
}

Ciphertext
LinearTransformer::applyBsgs(const Ciphertext &ct, const DiagMatrix &matrix,
                             const GaloisKeys &keys) const
{
    const BsgsPlan plan = bsgsPlan(matrix);
    const double ptScale = std::ldexp(1.0, context_.params().logScale);

    // Baby rotations computed with hoisting (one shared ModUp).
    const std::vector<Ciphertext> babies =
        plan.babies.empty()
            ? std::vector<Ciphertext>{}
            : evaluator_.rotateHoisted(ct, plan.babies, keys);
    const auto babyFor = [&](int64_t baby) -> const Ciphertext & {
        if (baby == 0)
            return ct;
        const auto it = std::lower_bound(plan.babies.begin(),
                                         plan.babies.end(), baby);
        return babies[static_cast<size_t>(it - plan.babies.begin())];
    };

    Ciphertext acc;
    for (const auto &[giant, terms] : plan.groups) {
        // Inner sum over the group's babies, with diagonals pre-rotated
        // by the giant shift (the p >> R preprocessing of §V-B), MACed
        // into one accumulator.
        const int shift = rotationOf(giant, matrix.slots());
        Ciphertext inner;
        inner.level = ct.level;
        inner.scale = ct.scale * ptScale;
        inner.b = Polynomial(ct.b.basis(), Domain::Eval);
        inner.a = Polynomial(ct.a.basis(), Domain::Eval);
        for (const auto &[baby, diag] : terms) {
            const Plaintext pt = encoder_.encode(
                preRotate(*diag, static_cast<size_t>(shift)), ct.level,
                ptScale);
            const Ciphertext &rotated = babyFor(baby);
            inner.b.macEq(rotated.b, pt.poly);
            inner.a.macEq(rotated.a, pt.poly);
        }
        if (shift != 0)
            inner = evaluator_.rotate(inner, shift, keys);
        if (acc.level == 0) {
            acc = std::move(inner);
        } else {
            acc.b += inner.b;
            acc.a += inner.a;
        }
    }
    return acc;
}

} // namespace anaheim
