#include "keyswitch.h"

#include <algorithm>
#include <array>

#include "common/logging.h"
#include "common/parallel.h"
#include "obs/trace.h"
#include "math/kernels.h"
#include "math/modarith.h"

namespace anaheim {

std::vector<Polynomial>
KeySwitcher::modUp(const Polynomial &a) const
{
    OBS_SPAN("keyswitch/modup");
    ANAHEIM_ASSERT(a.domain() == Domain::Eval, "ModUp expects Eval input");
    const size_t level = a.limbCount();
    const size_t digits = context_.digitsAtLevel(level);
    const RnsBasis extBasis = context_.extendedBasis(level);

    std::vector<Polynomial> result;
    result.reserve(digits);
    for (size_t j = 0; j < digits; ++j) {
        const auto [begin, endFull] = context_.digitRange(j);
        const size_t end = std::min(endFull, level);

        // Digit residues in coefficient domain for the basis conversion;
        // one inverse-NTT task per digit limb.
        RnsBasis digitBasis = context_.qBasis().slice(begin, end - begin);
        std::vector<CoeffVector> digitCoeff(end - begin);
        parallelFor(begin, end, [&](size_t i) {
            digitCoeff[i - begin] = a.limb(i);
            digitBasis.table(i - begin).inverse(digitCoeff[i - begin]);
        });

        // Convert to every extended prime outside the digit; the target
        // basis is assembled from slices so NTT tables are shared.
        RnsBasis before = extBasis.slice(0, begin);
        RnsBasis after = extBasis.slice(end, extBasis.size() - end);
        RnsBasis target = before.concat(after);
        const BasisConverter &conv = context_.converter(digitBasis, target);
        auto converted = conv.convert(digitCoeff);

        // Assemble the extended polynomial: digit limbs are copied in
        // Eval domain untouched; converted limbs are NTT'd into place.
        // The converted index of extended limb i is closed-form (limbs
        // below the digit map 1:1, limbs above skip the digit), so the
        // per-limb forward NTTs parallelize without a running counter.
        Polynomial ext(extBasis, Domain::Eval);
        parallelFor(0, extBasis.size(), [&](size_t i) {
            if (i >= begin && i < end) {
                ext.limb(i) = a.limb(i);
            } else {
                const size_t convIdx = i < begin ? i : begin + (i - end);
                ext.limb(i) = std::move(converted[convIdx]);
                extBasis.table(i).forward(ext.limb(i));
            }
        });
        result.push_back(std::move(ext));
    }
    return result;
}

std::pair<Polynomial, Polynomial>
KeySwitcher::keyMult(const std::vector<Polynomial> &digits,
                     const EvalKey &evk) const
{
    OBS_SPAN("keyswitch/keymult");
    ANAHEIM_ASSERT(!digits.empty(), "no digits");
    ANAHEIM_ASSERT(digits.size() <= evk.dnum(),
                   "more digits than evk provides");
    const size_t level = digits[0].limbCount() - context_.alpha();
    const size_t fullLevels = context_.maxLevel();
    const RnsBasis extBasis = context_.extendedBasis(level);
    for (const auto &digit : digits) {
        ANAHEIM_ASSERT(digit.limbCount() == extBasis.size(),
                       "digit limb count mismatch");
    }

    // The evk lives over the full Q || P. Extended limb i is Q limb i
    // below `level` and P limb i - level above it, so the digits meet
    // the key's limbs directly: one inner-product call per limb (one
    // per kMaxDigitsPerCall digits, past that), one task per limb. The
    // operand tables live on the stack: keyMult allocates only d0/d1.
    constexpr size_t kMaxDigitsPerCall = 64;
    Polynomial d0(extBasis, Domain::Eval);
    Polynomial d1(extBasis, Domain::Eval);
    const kernels::KernelOps &ops = kernels::active();
    parallelFor(0, extBasis.size(), [&](size_t i) {
        const size_t keyLimb = i < level ? i : fullLevels + (i - level);
        const Barrett &br = extBasis.table(i).barrett();
        const size_t n = d0.limb(i).size();
        std::array<const uint64_t *, kMaxDigitsPerCall> a, b0, b1;
        for (size_t j0 = 0; j0 < digits.size(); j0 += kMaxDigitsPerCall) {
            const size_t terms =
                std::min(kMaxDigitsPerCall, digits.size() - j0);
            for (size_t t = 0; t < terms; ++t) {
                a[t] = digits[j0 + t].limb(i).data();
                b0[t] = evk.b[j0 + t].limb(keyLimb).data();
                b1[t] = evk.a[j0 + t].limb(keyLimb).data();
            }
            ops.dualInnerProduct(d0.limb(i).data(), d1.limb(i).data(),
                                 a.data(), b0.data(), b1.data(), terms, n,
                                 br);
        }
    });
    return {std::move(d0), std::move(d1)};
}

Polynomial
KeySwitcher::modDown(const Polynomial &extended) const
{
    OBS_SPAN("keyswitch/moddown");
    const size_t alpha = context_.alpha();
    ANAHEIM_ASSERT(extended.limbCount() > alpha, "nothing to scale down");
    const size_t level = extended.limbCount() - alpha;
    const RnsBasis qBasis = context_.levelBasis(level);

    // P-part residues in coefficient domain; one task per special limb.
    std::vector<CoeffVector> pCoeff(alpha);
    parallelFor(0, alpha, [&](size_t i) {
        pCoeff[i] = extended.limb(level + i);
        context_.pBasis().table(i).inverse(pCoeff[i]);
    });
    const BasisConverter &conv =
        context_.converter(context_.pBasis(), qBasis);
    auto converted = conv.convert(pCoeff);

    Polynomial out(qBasis, Domain::Eval);
    parallelFor(0, level, [&](size_t i) {
        const uint64_t qi = qBasis.prime(i);
        qBasis.table(i).forward(converted[i]);
        const ShoupMul &pInv = context_.pInvModQPrepared()[i];
        const auto &src = extended.limb(i);
        auto &dst = out.limb(i);
        kernels::active().subMulShoup(dst.data(), src.data(),
                                      converted[i].data(), dst.size(),
                                      pInv.operand(), pInv.precon(), qi);
    });
    return out;
}

std::pair<Polynomial, Polynomial>
KeySwitcher::keySwitch(const Polynomial &a, const EvalKey &evk) const
{
    OBS_SPAN("keyswitch/full");
    const auto digits = modUp(a);
    auto [d0, d1] = keyMult(digits, evk);
    return {modDown(d0), modDown(d1)};
}

} // namespace anaheim
