#include <gtest/gtest.h>

#include <cstdlib>

#include "common/parallel.h"
#include "common/rng.h"
#include "math/kernels.h"
#include "math/modarith.h"
#include "math/ntt.h"
#include "math/primes.h"
#include "support/error_matchers.h"

namespace anaheim {
namespace {

/** Primes across every bit width a context can request, per degree. */
std::vector<uint64_t>
contextGradePrimes(size_t n)
{
    std::vector<uint64_t> primes;
    for (unsigned bits : {28, 30, 40, 50, 59}) {
        const auto batch = generateNttPrimes(n, bits, 1);
        primes.push_back(batch[0]);
    }
    return primes;
}

class NttTest : public ::testing::TestWithParam<size_t>
{
  protected:
    size_t n() const { return GetParam(); }
};

TEST_P(NttTest, ForwardInverseRoundTrip)
{
    const uint64_t q = generateNttPrimes(n(), 40, 1)[0];
    const NttTable table(q, n());
    Rng rng(7);
    auto data = sampleUniform(rng, n(), q);
    auto copy = data;
    table.forward(copy);
    EXPECT_NE(copy, data) << "forward NTT should change the data";
    table.inverse(copy);
    EXPECT_EQ(copy, data);
}

TEST_P(NttTest, ConvolutionTheorem)
{
    // NTT(a) .* NTT(b) == NTT(a *negacyclic* b): the property polynomial
    // multiplication in CKKS relies on.
    const uint64_t q = generateNttPrimes(n(), 40, 1)[0];
    const NttTable table(q, n());
    Rng rng(8);
    const auto a = sampleUniform(rng, n(), q);
    const auto b = sampleUniform(rng, n(), q);

    std::vector<uint64_t> expect(n(), 0);
    {
        // Reference O(N^2) negacyclic convolution.
        for (size_t i = 0; i < n(); ++i) {
            for (size_t j = 0; j < n(); ++j) {
                const uint64_t prod = mulMod(a[i], b[j], q);
                const size_t idx = i + j;
                if (idx < n())
                    expect[idx] = addMod(expect[idx], prod, q);
                else
                    expect[idx - n()] = subMod(expect[idx - n()], prod, q);
            }
        }
    }

    auto ea = a;
    auto eb = b;
    table.forward(ea);
    table.forward(eb);
    std::vector<uint64_t> prod(n());
    for (size_t i = 0; i < n(); ++i)
        prod[i] = mulMod(ea[i], eb[i], q);
    table.inverse(prod);
    EXPECT_EQ(prod, expect);
}

TEST_P(NttTest, TransformIsLinear)
{
    const uint64_t q = generateNttPrimes(n(), 30, 1)[0];
    const NttTable table(q, n());
    Rng rng(9);
    const auto a = sampleUniform(rng, n(), q);
    const auto b = sampleUniform(rng, n(), q);
    const uint64_t c = rng.uniform(q);

    CoeffVector combo(n());
    for (size_t i = 0; i < n(); ++i)
        combo[i] = addMod(mulMod(c, a[i], q), b[i], q);

    auto ea = a, eb = b, ecombo = combo;
    table.forward(ea);
    table.forward(eb);
    table.forward(ecombo);
    for (size_t i = 0; i < n(); ++i)
        EXPECT_EQ(ecombo[i], addMod(mulMod(c, ea[i], q), eb[i], q));
}

TEST_P(NttTest, EvalExponentsAreConsistent)
{
    // Slot j must hold the evaluation of the input at psi^{e_j}; verify
    // against a direct evaluation for random polynomials.
    const uint64_t q = generateNttPrimes(n(), 30, 1)[0];
    const NttTable table(q, n());
    const uint64_t psi = findPrimitiveRoot(q, n());
    Rng rng(10);
    const auto a = sampleUniform(rng, n(), q);
    auto ea = a;
    table.forward(ea);
    const auto &exps = table.evalExponents();
    for (size_t j = 0; j < n(); j += std::max<size_t>(1, n() / 16)) {
        const uint64_t point = powMod(psi, exps[j], q);
        uint64_t value = 0;
        uint64_t power = 1;
        for (size_t i = 0; i < n(); ++i) {
            value = addMod(value, mulMod(a[i], power, q), q);
            power = mulMod(power, point, q);
        }
        EXPECT_EQ(ea[j], value) << "slot " << j;
    }
}

TEST_P(NttTest, ExponentMapIsABijection)
{
    const uint64_t q = generateNttPrimes(n(), 30, 1)[0];
    const NttTable table(q, n());
    const auto &exps = table.evalExponents();
    const auto &slots = table.slotOfExponent();
    std::vector<bool> seen(2 * n(), false);
    for (size_t j = 0; j < n(); ++j) {
        EXPECT_EQ(exps[j] % 2, 1u) << "even exponent";
        EXPECT_FALSE(seen[exps[j]]) << "duplicate exponent";
        seen[exps[j]] = true;
        EXPECT_EQ(slots[exps[j]], static_cast<int32_t>(j));
    }
}

TEST_P(NttTest, LazyKernelsMatchReferenceBitwise)
{
    // The tentpole invariant: for every context-grade prime, the Harvey
    // lazy-reduction kernels and the division-based reference kernels
    // produce bit-identical outputs, in both directions, including when
    // chained (forward then inverse on the lazy path).
    // Under ANAHEIM_NTT_BACKEND=reference the default dispatch goes to
    // the oracle, but the lazy kernels themselves stay testable
    // directly.
    const bool refForced = kernels::nttReferenceForced();
    for (uint64_t q : contextGradePrimes(n())) {
        const NttTable table(q, n());
        ASSERT_EQ(table.usesLazyKernels(), !refForced) << "q=" << q;
        Rng rng(q ^ n());
        for (int rep = 0; rep < 4; ++rep) {
            const auto data = sampleUniform(rng, n(), q);

            auto lazyFwd = data;
            auto refFwd = data;
            table.forwardLazy(lazyFwd.data());
            table.forwardReference(refFwd.data());
            EXPECT_EQ(lazyFwd, refFwd) << "forward, q=" << q;

            auto lazyInv = data;
            auto refInv = data;
            table.inverseLazy(lazyInv.data());
            table.inverseReference(refInv.data());
            EXPECT_EQ(lazyInv, refInv) << "inverse, q=" << q;

            auto roundTrip = data;
            table.forwardLazy(roundTrip.data());
            table.inverseLazy(roundTrip.data());
            EXPECT_EQ(roundTrip, data) << "round trip, q=" << q;
        }
    }
}

TEST_P(NttTest, LazyKernelsMatchReferenceUnderThreads)
{
    // Same identity with limb-level parallelism on top: one task per
    // prime at 4 threads, mirroring how Polynomial::toEval dispatches.
    const auto primes = contextGradePrimes(n());
    std::vector<CoeffVector> lazyOut(primes.size());
    std::vector<CoeffVector> refOut(primes.size());
    for (size_t i = 0; i < primes.size(); ++i) {
        Rng rng(primes[i] + i);
        lazyOut[i] = sampleUniform(rng, n(), primes[i]);
        refOut[i] = lazyOut[i];
    }
    setParallelThreads(4);
    parallelFor(0, primes.size(), [&](size_t i) {
        const NttTable &table = *NttTable::shared(primes[i], n());
        table.forwardLazy(lazyOut[i].data());
        table.inverseLazy(lazyOut[i].data());
        table.forwardLazy(lazyOut[i].data());
    });
    setParallelThreads(1);
    for (size_t i = 0; i < primes.size(); ++i) {
        const NttTable &table = *NttTable::shared(primes[i], n());
        table.forwardReference(refOut[i].data());
        table.inverseReference(refOut[i].data());
        table.forwardReference(refOut[i].data());
        EXPECT_EQ(lazyOut[i], refOut[i]) << "prime " << primes[i];
    }
    setParallelThreads(defaultThreadCount());
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttTest,
                         ::testing::Values<size_t>(4, 16, 64, 256, 1024,
                                                   4096));

TEST(NttTable, SharedCacheReturnsOneInstancePerKey)
{
    const size_t n = 64;
    // Generated against 2N so the same prime is NTT-friendly for both
    // degrees the test builds tables at.
    const uint64_t q = generateNttPrimes(2 * n, 30, 1)[0];
    const auto a = NttTable::shared(q, n);
    const auto b = NttTable::shared(q, n);
    EXPECT_EQ(a.get(), b.get()) << "same (q, n) must share one table";
    const auto c = NttTable::shared(q, 2 * n);
    EXPECT_NE(a.get(), c.get());
    const uint64_t q2 = generateNttPrimes(n, 31, 1)[0];
    const auto d = NttTable::shared(q2, n);
    EXPECT_NE(a.get(), d.get());
    EXPECT_EQ(a->modulus(), q);
    EXPECT_EQ(a->degree(), n);
}

TEST(NttTable, SharedCacheConcurrentLookupBuildsOnce)
{
    // Concurrent first lookups of the same (q, n) keys must build each
    // table exactly once and never tear the cache (TSan covers the
    // mutex/future discipline when this runs under the tsan build).
    NttTable::clearShared();
    const size_t n = 512;
    const auto primes = generateNttPrimes(n, 40, 6);
    setParallelThreads(4);
    std::vector<std::shared_ptr<const NttTable>> got(4 * primes.size());
    parallelFor(0, got.size(), [&](size_t i) {
        got[i] = NttTable::shared(primes[i % primes.size()], n);
    });
    setParallelThreads(defaultThreadCount());
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_NE(got[i], nullptr);
        EXPECT_EQ(got[i].get(), got[i % primes.size()].get())
            << "same key must resolve to one instance, i=" << i;
    }
    EXPECT_EQ(NttTable::sharedCacheSize(), primes.size());
}

TEST(NttTable, SharedCacheBoundsGrowthAndSupportsClear)
{
    // Sweeping more keys than the capacity must not grow the cache
    // without bound: the least recently used entries are recycled, and
    // evicted tables stay alive through outstanding shared_ptrs.
    NttTable::clearShared();
    const size_t n = 32;
    const auto primes =
        generateNttPrimes(n, 30, NttTable::kSharedCacheCapacity + 8);
    const auto first = NttTable::shared(primes[0], n);
    for (uint64_t q : primes)
        (void)NttTable::shared(q, n);
    EXPECT_LE(NttTable::sharedCacheSize(), NttTable::kSharedCacheCapacity);
    // primes[0] was the least recently used entry, so the sweep evicted
    // it; a fresh lookup rebuilds while the old instance stays valid.
    const auto rebuilt = NttTable::shared(primes[0], n);
    EXPECT_NE(first.get(), rebuilt.get());
    EXPECT_EQ(first->modulus(), rebuilt->modulus());
    NttTable::clearShared();
    EXPECT_EQ(NttTable::sharedCacheSize(), 0u);
    EXPECT_EQ(first->degree(), n) << "evicted table must remain usable";
}

TEST(NttTable, LazyGatingBoundaryPrimes)
{
    // Satellite audit of the q < 2^59 gate: the largest NTT-friendly
    // prime below the bound must take the lazy kernels and match the
    // oracle bitwise (its 4q is the closest any admitted modulus gets
    // to the 64-bit edge: 4q < 2^61); the smallest prime above must
    // fall back to the reference kernels and still round-trip.
    const size_t n = 256;
    uint64_t below = NttTable::kLazyModulusBound + 1 - 2 * n;
    while (!isPrime(below))
        below -= 2 * n; // keeps q == 1 (mod 2N)
    ASSERT_LT(below, NttTable::kLazyModulusBound);
    const NttTable lazyTable(below, n);
    if (!kernels::nttReferenceForced()) {
        EXPECT_TRUE(lazyTable.usesLazyKernels());
    }
    Rng rng(13);
    const auto data = sampleUniform(rng, n, below);
    auto lazy = data, ref = data;
    lazyTable.forwardLazy(lazy.data());
    lazyTable.forwardReference(ref.data());
    EXPECT_EQ(lazy, ref) << "forward at boundary prime " << below;
    lazy = data;
    ref = data;
    lazyTable.inverseLazy(lazy.data());
    lazyTable.inverseReference(ref.data());
    EXPECT_EQ(lazy, ref) << "inverse at boundary prime " << below;
    // Worst-case magnitudes: every coefficient at q-1.
    std::vector<uint64_t> maxed(n, below - 1);
    auto maxedRef = maxed;
    lazyTable.forwardLazy(maxed.data());
    lazyTable.forwardReference(maxedRef.data());
    EXPECT_EQ(maxed, maxedRef);

    uint64_t above = NttTable::kLazyModulusBound + 1;
    while (above % (2 * n) != 1 || !isPrime(above))
        above += 2;
    const NttTable refTable(above, n);
    EXPECT_FALSE(refTable.usesLazyKernels());
    auto copy = data;
    refTable.forward(copy.data());
    refTable.inverse(copy.data());
    EXPECT_EQ(copy, data);

    // And the widest primes the generator can emit (59 "bits" caps at
    // values below 2^59) must be admitted by the gate.
    for (uint64_t q : generateNttPrimes(n, 59, 2)) {
        ASSERT_LT(q, NttTable::kLazyModulusBound);
        EXPECT_TRUE(NttTable(q, n).usesLazyKernels() ||
                    kernels::nttReferenceForced());
    }
}

TEST(NttTable, LargeModulusFallsBackToReferenceKernels)
{
    // The lazy kernels are gated at q < 2^59; a larger NTT-friendly
    // prime must still transform correctly through the reference path.
    const size_t n = 64;
    uint64_t q = (uint64_t{1} << 59) + 1;
    while (q % (2 * n) != 1 || !isPrime(q))
        q += 2;
    ASSERT_GE(q, NttTable::kLazyModulusBound);
    const NttTable table(q, n);
    EXPECT_FALSE(table.usesLazyKernels());
    Rng rng(12);
    const auto data = sampleUniform(rng, n, q);
    auto copy = data;
    table.forward(copy);
    table.inverse(copy);
    EXPECT_EQ(copy, data);
}

// Reference negacyclic square of small signed coefficients mod q.
std::vector<uint64_t>
negaRef(const std::vector<int64_t> &a, uint64_t q, size_t n)
{
    std::vector<int64_t> wide(n, 0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            const int64_t prod = a[i] * a[j];
            const size_t idx = i + j;
            if (idx < n)
                wide[idx] += prod;
            else
                wide[idx - n] -= prod;
        }
    }
    std::vector<uint64_t> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = fromSigned(wide[i], q);
    return out;
}

TEST(Ntt, MultiPrimeAgreement)
{
    // The same integer polynomial transformed under several primes must
    // stay CRT-consistent after pointwise squaring.
    const size_t n = 128;
    const auto primes = generateNttPrimes(n, 30, 3);
    std::vector<int64_t> smallCoeffs(n);
    Rng rng(11);
    for (auto &c : smallCoeffs)
        c = static_cast<int64_t>(rng.uniform(1000)) - 500;

    for (uint64_t q : primes) {
        const NttTable table(q, n);
        std::vector<uint64_t> data(n);
        for (size_t i = 0; i < n; ++i)
            data[i] = fromSigned(smallCoeffs[i], q);
        const auto expect = negaRef(smallCoeffs, q, n);
        table.forward(data);
        for (auto &v : data)
            v = mulMod(v, v, q);
        table.inverse(data);
        EXPECT_EQ(data, expect) << "prime " << q;
    }
}

TEST(NttTableValidationTest, RejectsBadParametersAtBuild)
{
    // Non-power-of-two ring degrees fail at table build with a clear
    // message instead of producing garbage transforms.
    EXPECT_ANAHEIM_ERROR(NttTable(97, 12), InvalidArgument,
                         "power of two");
    EXPECT_ANAHEIM_ERROR(NttTable(97, 0), InvalidArgument,
                         "power of two");
    // 97 == 1 (mod 32) fails for N = 64 (needs q == 1 mod 128).
    EXPECT_ANAHEIM_ERROR(NttTable(97, 64), InvalidArgument,
                         "q == 1 (mod 2N)");
    // Even or tiny moduli are rejected before the root search.
    EXPECT_ANAHEIM_ERROR(NttTable(256, 16), InvalidArgument,
                         "odd prime");
}

} // namespace
} // namespace anaheim
