#include <gtest/gtest.h>

#include <cmath>

#include "math/primes.h"
#include "rns/basis.h"

namespace anaheim {
namespace {

RnsBasis
makeBasis(size_t n, size_t count, unsigned bits = 30)
{
    return RnsBasis(generateNttPrimes(n, bits, count), n);
}

TEST(RnsBasis, ConstructionBuildsTables)
{
    const auto basis = makeBasis(64, 3);
    EXPECT_EQ(basis.size(), 3u);
    EXPECT_EQ(basis.degree(), 64u);
    for (size_t i = 0; i < basis.size(); ++i) {
        EXPECT_EQ(basis.table(i).modulus(), basis.prime(i));
        EXPECT_EQ(basis.table(i).degree(), 64u);
    }
}

TEST(RnsBasis, SliceSharesTables)
{
    const auto basis = makeBasis(64, 4);
    const auto sub = basis.slice(1, 2);
    EXPECT_EQ(sub.size(), 2u);
    EXPECT_EQ(sub.prime(0), basis.prime(1));
    EXPECT_EQ(sub.prime(1), basis.prime(2));
    // Shared table objects, not copies.
    EXPECT_EQ(&sub.table(0), &basis.table(1));
}

TEST(RnsBasis, ConcatPreservesOrder)
{
    const size_t n = 64;
    const auto qPrimes = generateNttPrimes(n, 30, 2);
    const auto pPrimes = generateNttPrimes(n, 30, 2, qPrimes);
    const RnsBasis q(qPrimes, n);
    const RnsBasis p(pPrimes, n);
    const auto joined = q.concat(p);
    ASSERT_EQ(joined.size(), 4u);
    EXPECT_EQ(joined.prime(0), qPrimes[0]);
    EXPECT_EQ(joined.prime(1), qPrimes[1]);
    EXPECT_EQ(joined.prime(2), pPrimes[0]);
    EXPECT_EQ(joined.prime(3), pPrimes[1]);
}

TEST(RnsBasis, LogProductAddsUp)
{
    const auto basis = makeBasis(64, 3);
    double expect = 0.0;
    for (size_t i = 0; i < basis.size(); ++i)
        expect += std::log2(static_cast<double>(basis.prime(i)));
    EXPECT_NEAR(basis.logProduct(), expect, 1e-9);
    // 3 primes just below 2^30 ⇒ log product just below 90.
    EXPECT_LT(basis.logProduct(), 90.0);
    EXPECT_GT(basis.logProduct(), 87.0);
}

} // namespace
} // namespace anaheim
