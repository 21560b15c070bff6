#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "math/modarith.h"
#include "math/primes.h"

namespace anaheim {
namespace {

/** NTT primes at every bit width a context can request (28-bit PIM
 *  grade through the 59-bit generic-path ceiling). */
std::vector<uint64_t>
contextGradePrimes()
{
    std::vector<uint64_t> primes;
    for (unsigned bits : {28, 30, 40, 50, 59}) {
        const auto batch = generateNttPrimes(size_t{1} << 12, bits, 2);
        primes.insert(primes.end(), batch.begin(), batch.end());
    }
    return primes;
}

TEST(ModArith, AddSubNegBasics)
{
    const uint64_t q = 97;
    EXPECT_EQ(addMod(50, 60, q), (50 + 60) % q);
    EXPECT_EQ(addMod(96, 96, q), (96 + 96) % q);
    EXPECT_EQ(subMod(10, 20, q), (10 + q - 20) % q);
    EXPECT_EQ(subMod(20, 10, q), 10u);
    EXPECT_EQ(negMod(0, q), 0u);
    EXPECT_EQ(negMod(1, q), q - 1);
}

TEST(ModArith, MulModMatchesBigInt)
{
    Rng rng(1);
    const uint64_t q = (1ULL << 59) - 55; // any modulus < 2^63 works
    for (int i = 0; i < 1000; ++i) {
        const uint64_t a = rng.uniform(q);
        const uint64_t b = rng.uniform(q);
        const auto expect = static_cast<uint64_t>(
            static_cast<unsigned __int128>(a) * b % q);
        EXPECT_EQ(mulMod(a, b, q), expect);
    }
}

TEST(ModArith, PowModSmallCases)
{
    EXPECT_EQ(powMod(2, 10, 1000000007ULL), 1024u);
    EXPECT_EQ(powMod(3, 0, 7), 1u);
    EXPECT_EQ(powMod(5, 6, 7), 1u); // Fermat: 5^(7-1) = 1 mod 7
}

TEST(ModArith, InvModIsInverse)
{
    Rng rng(2);
    const uint64_t q = 0xFFFFFFFF00000001ULL >> 8 | 1; // arbitrary odd
    const uint64_t prime = 1000000007ULL;
    (void)q;
    for (int i = 0; i < 200; ++i) {
        const uint64_t a = 1 + rng.uniform(prime - 1);
        EXPECT_EQ(mulMod(a, invMod(a, prime), prime), 1u);
    }
}

TEST(ModArith, CenteredRoundTrip)
{
    const uint64_t q = 101;
    for (uint64_t a = 0; a < q; ++a) {
        const int64_t c = toCentered(a, q);
        EXPECT_GE(c, -static_cast<int64_t>(q) / 2);
        EXPECT_LE(c, static_cast<int64_t>(q) / 2);
        EXPECT_EQ(fromSigned(c, q), a);
    }
}

TEST(ModArith, FromSignedHandlesLargeMagnitudes)
{
    const uint64_t q = 97;
    EXPECT_EQ(fromSigned(-1, q), q - 1);
    EXPECT_EQ(fromSigned(-static_cast<int64_t>(q) * 5 - 3, q), q - 3);
    EXPECT_EQ(fromSigned(static_cast<int64_t>(q) * 7 + 3, q), 3u);
}

TEST(ShoupMul, MatchesMulModForAllContextPrimes)
{
    // The prepared-operand primitive must agree with the division-based
    // mulMod on every prime a context can hand it, for random operands
    // and the boundary values of both the multiplicand and the input.
    for (uint64_t q : contextGradePrimes()) {
        Rng rng(q);
        for (int i = 0; i < 200; ++i) {
            const uint64_t w = rng.uniform(q);
            const ShoupMul prepared(w, q);
            EXPECT_EQ(prepared.operand(), w);
            for (const uint64_t a :
                 {rng.uniform(q), uint64_t{0}, uint64_t{1}, q - 1}) {
                EXPECT_EQ(prepared.mul(a, q), mulMod(a, w, q))
                    << "a=" << a << " w=" << w << " q=" << q;
            }
        }
        // Multiplicand edges: 0, 1, q-1.
        for (const uint64_t w : {uint64_t{0}, uint64_t{1}, q - 1}) {
            const ShoupMul prepared(w, q);
            for (int i = 0; i < 50; ++i) {
                const uint64_t a = rng.uniform(q);
                EXPECT_EQ(prepared.mul(a, q), mulMod(a, w, q));
            }
        }
    }
}

TEST(ShoupMul, LazyFormIsBoundedAndCongruent)
{
    // The lazy product must stay < 2q and be congruent to a*w even for
    // unreduced inputs up to 4q — the exact contract the Harvey NTT
    // butterflies rely on.
    for (uint64_t q : contextGradePrimes()) {
        if (q >= (uint64_t{1} << 59))
            continue; // lazy form is only used below the NTT bound
        Rng rng(q + 1);
        for (int i = 0; i < 200; ++i) {
            const uint64_t w = rng.uniform(q);
            const ShoupMul prepared(w, q);
            const uint64_t a = rng.uniform(4 * q); // lazy-range input
            const uint64_t lazy = prepared.mulLazy(a, q);
            EXPECT_LT(lazy, 2 * q);
            EXPECT_EQ(lazy % q, mulMod(a % q, w, q));
            EXPECT_EQ(prepared.mul(a, q), mulMod(a % q, w, q));
        }
    }
}

TEST(ShoupMul, FreeFunctionsMatchWrapper)
{
    const uint64_t q = (1ULL << 59) - 55;
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const uint64_t w = rng.uniform(q);
        const uint64_t a = rng.uniform(q);
        const uint64_t precon = shoupPrecompute(w, q);
        const ShoupMul prepared(w, q);
        EXPECT_EQ(prepared.precon(), precon);
        EXPECT_EQ(mulModShoup(a, w, precon, q), prepared.mul(a, q));
        EXPECT_EQ(mulModShoupLazy(a, w, precon, q),
                  prepared.mulLazy(a, q));
    }
}

class BarrettParamTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BarrettParamTest, MatchesGenericMulMod)
{
    const uint64_t q = GetParam();
    const Barrett barrett(q);
    Rng rng(q);
    for (int i = 0; i < 500; ++i) {
        const uint64_t a = rng.uniform(q);
        const uint64_t b = rng.uniform(q);
        EXPECT_EQ(barrett.mulMod(a, b), mulMod(a, b, q))
            << "a=" << a << " b=" << b << " q=" << q;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Moduli, BarrettParamTest,
    ::testing::Values<uint64_t>(3, 97, (1ULL << 28) - 57,
                                (1ULL << 45) - 229, (1ULL << 59) - 55,
                                (1ULL << 61) - 1));

TEST(Barrett, ReducesFullRangeProducts)
{
    const uint64_t q = (1ULL << 61) - 1;
    const Barrett barrett(q);
    const unsigned __int128 x =
        static_cast<unsigned __int128>(q - 1) * (q - 1);
    EXPECT_EQ(barrett.reduce(x),
              static_cast<uint64_t>(x % q));
}

TEST(Barrett, OperandsNearQTimesTwoPow64)
{
    // x ~= q * 2^64 is where the quotient estimate's top-half split is
    // most stressed: xHi ~= q and the true quotient is ~2^64.
    for (const uint64_t q :
         {(1ULL << 59) - 55, (1ULL << 61) - 1, (1ULL << 62) - 57}) {
        const Barrett barrett(q);
        const unsigned __int128 pivot =
            static_cast<unsigned __int128>(q) << 64;
        for (int delta = -3; delta <= 3; ++delta) {
            const unsigned __int128 x =
                delta < 0 ? pivot - static_cast<unsigned>(-delta)
                          : pivot + static_cast<unsigned>(delta);
            EXPECT_EQ(barrett.reduce(x), static_cast<uint64_t>(x % q))
                << "q=" << q << " delta=" << delta;
        }
    }
}

TEST(Barrett, ModulusNearUpperBound)
{
    // Largest admissible modulus class (q just under 2^62): products of
    // maximal operands exercise the widest intermediate values the
    // quotient estimate ever sees.
    const uint64_t q = (1ULL << 62) - 57;
    const Barrett barrett(q);
    EXPECT_EQ(barrett.modulus(), q);
    EXPECT_EQ(barrett.mulMod(q - 1, q - 1),
              static_cast<uint64_t>(
                  static_cast<unsigned __int128>(q - 1) * (q - 1) % q));
    EXPECT_EQ(barrett.reduce(0), 0u);
    EXPECT_EQ(barrett.reduce(q), 0u);
    EXPECT_EQ(barrett.reduce(static_cast<unsigned __int128>(q) - 1),
              q - 1);
}

TEST(Barrett, RandomizedCrossCheckAgainstInt128Modulo)
{
    // Full-width random 128-bit operands (not just products of reduced
    // values) against the compiler's __int128 %.
    Rng rng(99);
    for (const uint64_t q : {3ULL, (1ULL << 28) - 57, (1ULL << 45) - 229,
                             (1ULL << 59) - 55, (1ULL << 62) - 57}) {
        const Barrett barrett(q);
        for (int i = 0; i < 2000; ++i) {
            const unsigned __int128 x =
                (static_cast<unsigned __int128>(rng.next()) << 64) |
                rng.next();
            EXPECT_EQ(barrett.reduce(x), static_cast<uint64_t>(x % q))
                << "q=" << q;
        }
    }
}

TEST(Barrett, WordReductionAndSignedLiftMatchDivision)
{
    // reduceWord and fromSigned(a, Barrett) replace per-coefficient
    // divisions in rescale and polynomialFromSigned; both must equal
    // the division-based forms on random and boundary words.
    Rng rng(7);
    std::vector<uint64_t> moduli = contextGradePrimes();
    moduli.insert(moduli.end(), {3ULL, (1ULL << 62) - 57});
    for (const uint64_t q : moduli) {
        const Barrett barrett(q);
        std::vector<uint64_t> words = {0, 1, q - 1, q, q + 1, 2 * q - 1,
                                       2 * q, ~0ULL, ~0ULL - q};
        for (int i = 0; i < 2000; ++i)
            words.push_back(rng.next());
        for (const uint64_t x : words) {
            EXPECT_EQ(barrett.reduceWord(x), x % q) << "q=" << q;
            const auto a = static_cast<int64_t>(x);
            EXPECT_EQ(fromSigned(a, barrett), fromSigned(a, q))
                << "q=" << q << " a=" << a;
        }
        EXPECT_EQ(fromSigned(std::numeric_limits<int64_t>::min(), barrett),
                  fromSigned(std::numeric_limits<int64_t>::min(), q));
    }
}

} // namespace
} // namespace anaheim
