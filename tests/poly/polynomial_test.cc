#include <gtest/gtest.h>

#include "common/rng.h"
#include "math/modarith.h"
#include "math/primes.h"
#include "poly/polynomial.h"

namespace anaheim {
namespace {

RnsBasis
makeBasis(size_t n, size_t count)
{
    return RnsBasis(generateNttPrimes(n, 30, count), n);
}

Polynomial
randomPoly(const RnsBasis &basis, Rng &rng, Domain domain = Domain::Eval)
{
    Polynomial p(basis, domain);
    for (size_t i = 0; i < basis.size(); ++i)
        p.limb(i) = sampleUniform(rng, basis.degree(), basis.prime(i));
    return p;
}

TEST(Polynomial, ZeroInitialized)
{
    const auto basis = makeBasis(32, 2);
    const Polynomial p(basis);
    for (size_t i = 0; i < p.limbCount(); ++i)
        for (uint64_t c : p.limb(i))
            EXPECT_EQ(c, 0u);
}

TEST(Polynomial, DomainRoundTrip)
{
    const auto basis = makeBasis(64, 3);
    Rng rng(31);
    auto p = randomPoly(basis, rng, Domain::Coeff);
    const auto original = p;
    p.toEval();
    EXPECT_EQ(p.domain(), Domain::Eval);
    p.toCoeff();
    EXPECT_EQ(p, original);
}

TEST(Polynomial, AddSubInverse)
{
    const auto basis = makeBasis(64, 2);
    Rng rng(32);
    const auto a = randomPoly(basis, rng);
    const auto b = randomPoly(basis, rng);
    auto sum = a + b;
    sum -= b;
    EXPECT_EQ(sum, a);
}

TEST(Polynomial, EvalDomainMultIsNegacyclicConvolution)
{
    const auto basis = makeBasis(64, 2);
    Rng rng(33);
    auto a = randomPoly(basis, rng, Domain::Coeff);
    auto b = randomPoly(basis, rng, Domain::Coeff);

    std::vector<CoeffVector> expect(basis.size());
    for (size_t i = 0; i < basis.size(); ++i)
        expect[i] = negacyclicMultiply(a.limb(i), b.limb(i),
                                       basis.prime(i));

    a.toEval();
    b.toEval();
    a.mulEq(b);
    a.toCoeff();
    for (size_t i = 0; i < basis.size(); ++i)
        EXPECT_EQ(a.limb(i), expect[i]) << "limb " << i;
}

TEST(Polynomial, MacMatchesMulThenAdd)
{
    const auto basis = makeBasis(32, 3);
    Rng rng(34);
    const auto a = randomPoly(basis, rng);
    const auto b = randomPoly(basis, rng);
    auto acc1 = randomPoly(basis, rng);
    auto acc2 = acc1;

    acc1.macEq(a, b);
    auto prod = a;
    prod.mulEq(b);
    acc2 += prod;
    EXPECT_EQ(acc1, acc2);
}

TEST(Polynomial, NegateIsAdditiveInverse)
{
    const auto basis = makeBasis(32, 2);
    Rng rng(35);
    const auto a = randomPoly(basis, rng);
    auto neg = a;
    neg.negate();
    auto sum = a + neg;
    EXPECT_EQ(sum, Polynomial(basis));
}

TEST(Polynomial, ScalarMultPerLimb)
{
    const auto basis = makeBasis(16, 2);
    Rng rng(36);
    auto a = randomPoly(basis, rng);
    const auto original = a;
    std::vector<uint64_t> scalars = {3, 5};
    a.mulScalarEq(scalars);
    for (size_t i = 0; i < basis.size(); ++i)
        for (size_t c = 0; c < basis.degree(); ++c)
            EXPECT_EQ(a.limb(i)[c],
                      mulMod(original.limb(i)[c], scalars[i],
                             basis.prime(i)));
}

TEST(Polynomial, ScalarMacAndAddPerLimb)
{
    const auto basis = makeBasis(16, 2);
    Rng rng(37);
    const auto a = randomPoly(basis, rng);
    auto acc = randomPoly(basis, rng);
    const auto original = acc;
    const std::vector<uint64_t> scalars = {7, basis.prime(1) - 2};
    acc.macScalarEq(a, scalars);
    auto shifted = original;
    shifted.addScalarEq(scalars);
    for (size_t i = 0; i < basis.size(); ++i) {
        const uint64_t q = basis.prime(i);
        for (size_t c = 0; c < basis.degree(); ++c) {
            EXPECT_EQ(acc.limb(i)[c],
                      addMod(original.limb(i)[c],
                             mulMod(a.limb(i)[c], scalars[i], q), q));
            EXPECT_EQ(shifted.limb(i)[c],
                      addMod(original.limb(i)[c], scalars[i], q));
        }
    }
}

TEST(Polynomial, OperandWithMoreLimbsIsReadAsItsPrefix)
{
    // A higher-level operand of the same chain acts as its truncation,
    // so level alignment needs no copy; a shorter operand is rejected.
    const auto basis = makeBasis(16, 4);
    Rng rng(38);
    const auto high = randomPoly(basis, rng);
    const auto low = randomPoly(basis.slice(0, 2), rng);
    const auto prefix = high.firstLimbs(2);

    auto sum = low;
    sum += high;
    EXPECT_EQ(sum, low + prefix);
    auto prod = low;
    prod.mulEq(high);
    EXPECT_EQ(prod, mul(low, prefix));
    auto mac = low;
    mac.macEq(high, high);
    auto macRef = low;
    macRef.macEq(prefix, prefix);
    EXPECT_EQ(mac, macRef);

    auto tooHigh = high;
    EXPECT_DEATH(tooHigh += low, "limb count mismatch");
}

class AutomorphismTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(AutomorphismTest, EvalDomainMatchesCoeffDomain)
{
    const size_t n = 64;
    const auto basis = makeBasis(n, 2);
    const uint64_t k = GetParam();
    Rng rng(37);
    auto a = randomPoly(basis, rng, Domain::Coeff);

    // Path 1: permute coefficients, then NTT.
    auto viaCoeff = a.automorphism(k);
    viaCoeff.toEval();

    // Path 2: NTT, then permute slots.
    auto aEval = a;
    aEval.toEval();
    const auto viaEval = aEval.automorphism(k);

    EXPECT_EQ(viaCoeff, viaEval) << "k=" << k;
}

TEST_P(AutomorphismTest, ComposesMultiplicatively)
{
    const size_t n = 32;
    const auto basis = makeBasis(n, 1);
    const uint64_t k = GetParam() % (2 * n);
    if ((k & 1) == 0)
        GTEST_SKIP();
    Rng rng(38);
    const auto a = randomPoly(basis, rng, Domain::Coeff);
    const uint64_t k2 = 5;
    const auto once = a.automorphism(k).automorphism(k2);
    const auto combined = a.automorphism((k * k2) % (2 * n));
    EXPECT_EQ(once, combined);
}

INSTANTIATE_TEST_SUITE_P(GaloisElements, AutomorphismTest,
                         ::testing::Values<uint64_t>(1, 3, 5, 25, 127,
                                                     63));

TEST(Polynomial, AutomorphismIdentity)
{
    const auto basis = makeBasis(32, 2);
    Rng rng(39);
    const auto a = randomPoly(basis, rng);
    EXPECT_EQ(a.automorphism(1), a);
}

TEST(Polynomial, AutomorphismConjugationInvolution)
{
    // k = 2N-1 is CKKS conjugation; applying it twice is identity.
    const size_t n = 64;
    const auto basis = makeBasis(n, 2);
    Rng rng(40);
    const auto a = randomPoly(basis, rng);
    EXPECT_EQ(a.automorphism(2 * n - 1).automorphism(2 * n - 1), a);
}

TEST(Polynomial, FirstLimbsViewsPrefix)
{
    const auto basis = makeBasis(16, 4);
    Rng rng(41);
    const auto a = randomPoly(basis, rng);
    const auto prefix = a.firstLimbs(2);
    EXPECT_EQ(prefix.limbCount(), 2u);
    EXPECT_EQ(prefix.limb(0), a.limb(0));
    EXPECT_EQ(prefix.limb(1), a.limb(1));
}

TEST(Polynomial, FromSignedReducesCorrectly)
{
    const auto basis = makeBasis(8, 2);
    std::vector<int64_t> coeffs = {0, 1, -1, 5, -5, 100, -100, 7};
    const auto p = polynomialFromSigned(basis, coeffs);
    EXPECT_EQ(p.domain(), Domain::Coeff);
    for (size_t i = 0; i < basis.size(); ++i) {
        for (size_t c = 0; c < coeffs.size(); ++c)
            EXPECT_EQ(p.limb(i)[c], fromSigned(coeffs[c], basis.prime(i)));
    }
}

} // namespace
} // namespace anaheim
