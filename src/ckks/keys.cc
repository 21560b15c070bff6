#include "keys.h"

#include "common/logging.h"
#include "math/modarith.h"

namespace anaheim {

namespace {

/** Sample a uniform polynomial over `basis` directly in Eval domain. */
Polynomial
sampleUniformPoly(Rng &rng, const RnsBasis &basis)
{
    Polynomial p(basis, Domain::Eval);
    for (size_t i = 0; i < basis.size(); ++i)
        p.limb(i) = sampleUniform(rng, basis.degree(), basis.prime(i));
    return p;
}

/** Sample a small error polynomial over `basis`, returned in Eval. */
Polynomial
sampleErrorPoly(Rng &rng, const RnsBasis &basis, double sigma)
{
    const auto errs = sampleError(rng, basis.degree(), sigma);
    Polynomial p = polynomialFromSigned(basis, errs);
    p.toEval();
    return p;
}

} // namespace

KeyGenerator::KeyGenerator(const CkksContext &context, uint64_t seed)
    : context_(context), rng_(seed)
{
    const auto &params = context_.params();
    secret_.coeffs =
        sampleTernary(rng_, context_.degree(), params.hammingWeight);
    std::vector<int64_t> wide(secret_.coeffs.begin(), secret_.coeffs.end());
    secret_.s = polynomialFromSigned(context_.qpBasis(), wide);
    secret_.s.toEval();
}

PublicKey
KeyGenerator::makePublicKey()
{
    const auto &params = context_.params();
    const RnsBasis &basis = context_.qBasis();
    PublicKey pk;
    pk.a = sampleUniformPoly(rng_, basis);
    Polynomial e = sampleErrorPoly(rng_, basis, params.sigma);
    // b = -a*s + e over Q.
    Polynomial as = pk.a;
    as.mulEq(secret_.s.firstLimbs(basis.size()));
    pk.b = e - as;
    return pk;
}

EvalKey
KeyGenerator::makeSwitchingKey(const Polynomial &target)
{
    const auto &params = context_.params();
    const RnsBasis &qp = context_.qpBasis();
    const size_t levels = context_.maxLevel();
    const size_t dnum = context_.dnum();

    EvalKey evk;
    evk.b.reserve(dnum);
    evk.a.reserve(dnum);
    for (size_t j = 0; j < dnum; ++j) {
        Polynomial a = sampleUniformPoly(rng_, qp);
        Polynomial b = sampleErrorPoly(rng_, qp, params.sigma);
        // b = e - a*s + g_j * target. The gadget factor g_j reduces to
        // (P mod q_i) on the digit's own primes and 0 everywhere else.
        Polynomial as = a;
        as.mulEq(secret_.s);
        b -= as;
        const auto [digitBegin, digitEnd] = context_.digitRange(j);
        std::vector<uint64_t> gadget(qp.size(), 0);
        for (size_t i = digitBegin; i < digitEnd && i < levels; ++i)
            gadget[i] = context_.pModQ()[i];
        Polynomial scaledTarget = target;
        scaledTarget.mulScalarEq(gadget);
        b += scaledTarget;
        evk.b.push_back(std::move(b));
        evk.a.push_back(std::move(a));
    }
    return evk;
}

EvalKey
KeyGenerator::makeRelinKey()
{
    Polynomial sSquared = secret_.s;
    sSquared.mulEq(secret_.s);
    return makeSwitchingKey(sSquared);
}

EvalKey
KeyGenerator::makeGaloisKey(uint64_t galoisElt)
{
    return makeSwitchingKey(secret_.s.automorphism(galoisElt));
}

GaloisKeys
KeyGenerator::makeGaloisKeys(const std::vector<int> &rotations,
                             bool withConjugation)
{
    GaloisKeys keys;
    for (int r : rotations) {
        const uint64_t k = rotationGaloisElt(r, context_.degree());
        if (!keys.count(k))
            keys.emplace(k, makeGaloisKey(k));
    }
    if (withConjugation) {
        const uint64_t k = conjugationGaloisElt(context_.degree());
        keys.emplace(k, makeGaloisKey(k));
    }
    return keys;
}

uint64_t
KeyGenerator::rotationGaloisElt(int rotation, size_t n)
{
    const uint64_t m = 2 * n;
    const size_t slots = n / 2;
    // Normalize the rotation into [0, slots).
    int64_t r = rotation % static_cast<int64_t>(slots);
    if (r < 0)
        r += static_cast<int64_t>(slots);
    uint64_t k = 1;
    for (int64_t i = 0; i < r; ++i)
        k = k * 5 % m;
    return k;
}

uint64_t
KeyGenerator::conjugationGaloisElt(size_t n)
{
    return 2 * n - 1;
}

} // namespace anaheim
