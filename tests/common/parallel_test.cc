/**
 * @file
 * Tests for the shared limb-parallel execution engine: pool mechanics
 * (reuse, exception propagation, range edge cases, the
 * ANAHEIM_THREADS=1 serial fallback) and the determinism property —
 * parallel and serial executions of the limb-partitioned hot paths
 * (NTT, BConv, keyswitch, BSGS linear transform, Chebyshev sum) must
 * produce bitwise-identical results on random inputs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

#include "boot/chebyshev.h"
#include "ckks/encryptor.h"
#include "ckks/keys.h"
#include "ckks/keyswitch.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "lintrans/lintrans.h"
#include "math/primes.h"
#include "poly/polynomial.h"
#include "rns/bconv.h"
#include "support/error_matchers.h"

namespace anaheim {
namespace {

/** Restores the global pool width when a test returns. */
class ThreadGuard
{
  public:
    ThreadGuard() : saved_(parallelThreadCount()) {}
    ~ThreadGuard() { setParallelThreads(saved_); }

  private:
    size_t saved_;
};

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce)
{
    ThreadGuard guard;
    setParallelThreads(4);
    std::vector<std::atomic<int>> visits(1000);
    parallelFor(0, visits.size(), [&](size_t i) { ++visits[i]; });
    for (size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelForTest, PoolIsReusedAcrossCalls)
{
    ThreadGuard guard;
    setParallelThreads(4);
    const size_t widthBefore = parallelThreadCount();
    std::atomic<uint64_t> sum{0};
    for (int round = 0; round < 50; ++round)
        parallelFor(0, 64, [&](size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 50u * (64u * 63u / 2));
    // Repeated loops run on the same pool; no teardown/respawn between.
    EXPECT_EQ(parallelThreadCount(), widthBefore);
}

TEST(ParallelForTest, EmptyAndInvertedRangesAreNoOps)
{
    ThreadGuard guard;
    setParallelThreads(4);
    bool touched = false;
    parallelFor(5, 5, [&](size_t) { touched = true; });
    parallelFor(7, 3, [&](size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ParallelForTest, DegenerateRangesNeitherDeadlockNorSkip)
{
    ThreadGuard guard;
    setParallelThreads(4);

    // Range smaller than the thread count: every index exactly once,
    // idle workers must not spin or claim phantom indices.
    std::vector<std::atomic<int>> tiny(2);
    parallelFor(0, tiny.size(), [&](size_t i) { ++tiny[i]; });
    for (auto &v : tiny)
        EXPECT_EQ(v.load(), 1);

    // A single-index range at a nonzero begin.
    std::atomic<int> one{0};
    parallelFor(41, 42, [&](size_t i) {
        EXPECT_EQ(i, 41u);
        ++one;
    });
    EXPECT_EQ(one.load(), 1);
}

TEST(ParallelForTest, RangesNearSizeMaxDoNotWrapTheCursor)
{
    // Regression: an implementation that advanced a raw index cursor
    // wrapped past `end` for ranges ending near SIZE_MAX and
    // re-admitted bogus indices. The offset cursor cannot wrap.
    ThreadGuard guard;
    setParallelThreads(4);
    const size_t end = std::numeric_limits<size_t>::max();
    const size_t begin = end - 70;
    std::atomic<uint64_t> count{0};
    std::atomic<bool> outOfRange{false};
    parallelFor(begin, end, [&](size_t i) {
        if (i < begin || i >= end)
            outOfRange = true;
        ++count;
    });
    EXPECT_EQ(count.load(), 70u);
    EXPECT_FALSE(outOfRange.load());
}

TEST(ParallelForTest, ExceptionPropagatesToCaller)
{
    ThreadGuard guard;
    setParallelThreads(4);
    EXPECT_THROW(
        parallelFor(0, 256,
                    [](size_t i) {
                        if (i == 97)
                            throw std::runtime_error("boom at 97");
                    }),
        std::runtime_error);
    // The pool survives a throwing loop and keeps working.
    std::atomic<int> count{0};
    parallelFor(0, 32, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 32);
}

TEST(ParallelForTest, NestedCallsRunInline)
{
    ThreadGuard guard;
    setParallelThreads(4);
    std::vector<std::atomic<int>> visits(16 * 16);
    parallelFor(0, 16, [&](size_t outer) {
        parallelFor(0, 16, [&](size_t inner) {
            ++visits[outer * 16 + inner];
        });
    });
    for (auto &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, SingleThreadFallbackRunsOnCaller)
{
    ThreadGuard guard;
    setParallelThreads(1);
    EXPECT_EQ(parallelThreadCount(), 1u);
    const auto caller = std::this_thread::get_id();
    parallelFor(0, 64, [&](size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ParallelForTest, EnvVariableControlsDefaultWidth)
{
    // defaultThreadCount() is what the global pool is sized with on
    // first use; exercise its parsing directly.
    setenv("ANAHEIM_THREADS", "1", 1);
    EXPECT_EQ(defaultThreadCount(), 1u);
    setenv("ANAHEIM_THREADS", "6", 1);
    EXPECT_EQ(defaultThreadCount(), 6u);
    setenv("ANAHEIM_THREADS", "999999", 1);
    EXPECT_EQ(defaultThreadCount(), ThreadPool::kMaxThreads);
    setenv("ANAHEIM_THREADS", "garbage", 1);
    EXPECT_GE(defaultThreadCount(), 1u); // falls back to hardware
    unsetenv("ANAHEIM_THREADS");
    EXPECT_GE(defaultThreadCount(), 1u);
}

// ---------------------------------------------------------------------
// Determinism property: limb partitioning only, so the parallel engine
// must be bitwise identical to the serial fallback on every hot path.
// ---------------------------------------------------------------------

Polynomial
randomPolynomial(const RnsBasis &basis, uint64_t seed, Domain domain)
{
    Rng rng(seed);
    Polynomial p(basis, domain);
    for (size_t i = 0; i < basis.size(); ++i)
        p.limb(i) = sampleUniform(rng, basis.degree(), basis.prime(i));
    return p;
}

class ParallelDeterminismTest : public ::testing::Test
{
  protected:
    ParallelDeterminismTest()
        : context_(CkksParams::testParams(1 << 10, 6, 2))
    {
    }

    CkksContext context_;
    ThreadGuard guard_;
};

TEST_F(ParallelDeterminismTest, NttRoundTripMatchesSerial)
{
    const auto base =
        randomPolynomial(context_.qBasis(), 1234, Domain::Coeff);

    setParallelThreads(1);
    Polynomial serial = base;
    serial.toEval();
    Polynomial serialBack = serial;
    serialBack.toCoeff();

    setParallelThreads(4);
    Polynomial parallel = base;
    parallel.toEval();
    Polynomial parallelBack = parallel;
    parallelBack.toCoeff();

    EXPECT_TRUE(serial == parallel);
    EXPECT_TRUE(serialBack == parallelBack);
    EXPECT_TRUE(serialBack == base);
}

TEST_F(ParallelDeterminismTest, ElementWiseOpsMatchSerial)
{
    const auto a = randomPolynomial(context_.qBasis(), 5, Domain::Eval);
    const auto b = randomPolynomial(context_.qBasis(), 6, Domain::Eval);

    setParallelThreads(1);
    Polynomial sumS = a + b;
    Polynomial prodS = mul(a, b);
    Polynomial macS = a;
    macS.macEq(a, b);

    setParallelThreads(4);
    Polynomial sumP = a + b;
    Polynomial prodP = mul(a, b);
    Polynomial macP = a;
    macP.macEq(a, b);

    EXPECT_TRUE(sumS == sumP);
    EXPECT_TRUE(prodS == prodP);
    EXPECT_TRUE(macS == macP);
}

TEST_F(ParallelDeterminismTest, BasisConversionMatchesSerial)
{
    const BasisConverter conv(context_.qBasis(), context_.pBasis());
    Rng rng(99);
    std::vector<CoeffVector> input(context_.qBasis().size());
    for (size_t i = 0; i < input.size(); ++i) {
        input[i] = sampleUniform(rng, context_.degree(),
                                 context_.qBasis().prime(i));
    }

    setParallelThreads(1);
    const auto serial = conv.convert(input);
    setParallelThreads(4);
    const auto parallel = conv.convert(input);
    EXPECT_EQ(serial, parallel);

    // The direct scalar path agrees with the vector path on width-1
    // inputs.
    std::vector<uint64_t> residues(input.size());
    for (size_t i = 0; i < input.size(); ++i)
        residues[i] = input[i][0];
    const auto scalar = conv.convertScalar(residues);
    ASSERT_EQ(scalar.size(), serial.size());
    for (size_t j = 0; j < scalar.size(); ++j)
        EXPECT_EQ(scalar[j], serial[j][0]) << "target limb " << j;
}

TEST_F(ParallelDeterminismTest, KeySwitchMatchesSerial)
{
    KeyGenerator keygen(context_, 7);
    const EvalKey evk = keygen.makeRelinKey();
    const KeySwitcher switcher(context_);
    const auto a = randomPolynomial(context_.qBasis(), 31, Domain::Eval);

    setParallelThreads(1);
    const auto [d0s, d1s] = switcher.keySwitch(a, evk);
    setParallelThreads(4);
    const auto [d0p, d1p] = switcher.keySwitch(a, evk);

    EXPECT_TRUE(d0s == d0p);
    EXPECT_TRUE(d1s == d1p);
}

TEST_F(ParallelDeterminismTest, BsgsAndChebyshevMatchSerial)
{
    // Both accumulate in place (BSGS giant groups MAC into one
    // accumulator; a Chebyshev sum MACs integer scalars before its one
    // rescale), so both must not depend on the pool width. Compare the
    // one-thread pool with the default pool (at least 4 wide, so a
    // one-core host still runs the parallel path).
    const CkksEncoder encoder(context_);
    const CkksEvaluator evaluator(context_, encoder);
    const LinearTransformer transformer(context_, encoder, evaluator);
    KeyGenerator keygen(context_, 8);
    CkksEncryptor encryptor(context_, 9);
    const EvalKey relin = keygen.makeRelinKey();
    const ChebyshevEvaluator chebyshev(evaluator, relin);

    Rng rng(41);
    const size_t slots = encoder.slots();
    std::vector<std::complex<double>> msg(slots);
    for (auto &v : msg)
        v = {rng.uniformReal() - 0.5, 0.0};
    const auto matrix = DiagMatrix::random(
        slots, {slots - 2, slots - 1, 0, 1, 2, 16, 32}, rng);
    const GaloisKeys keys = keygen.makeGaloisKeys(
        LinearTransformer::requiredRotations(
            matrix, LinTransAlgorithm::BsgsHoisting));
    const Ciphertext ct = encryptor.encrypt(
        encoder.encode(msg, context_.maxLevel()), keygen.secretKey());
    const std::vector<double> series = {0.1, -0.4, 0.3, 0.05, -0.2, 0.15};

    const auto run = [&] {
        return std::vector<Ciphertext>{
            transformer.apply(ct, matrix, keys,
                              LinTransAlgorithm::BsgsHoisting),
            chebyshev.evaluate(ct, series)};
    };
    setParallelThreads(1);
    const auto serial = run();
    setParallelThreads(std::max<size_t>(defaultThreadCount(), 4));
    const auto parallel = run();

    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].level, parallel[i].level) << i;
        EXPECT_EQ(serial[i].scale, parallel[i].scale) << i;
        EXPECT_TRUE(serial[i].b == parallel[i].b) << i;
        EXPECT_TRUE(serial[i].a == parallel[i].a) << i;
    }
}

TEST(BConvValidationTest, RaggedInputIsRejected)
{
    const auto primes = generateNttPrimes(8, 30, 3);
    const RnsBasis source({primes[0], primes[1]}, 8);
    const RnsBasis target({primes[2]}, 8);
    const BasisConverter conv(source, target);
    std::vector<CoeffVector> ragged = {CoeffVector(8, 1),
                                       CoeffVector(4, 1)};
    EXPECT_ANAHEIM_ERROR(conv.convert(ragged), InvalidArgument,
                         "ragged input");
    std::vector<CoeffVector> empty = {CoeffVector(), CoeffVector()};
    EXPECT_ANAHEIM_ERROR(conv.convert(empty), InvalidArgument,
                         "zero-length limbs");
    std::vector<CoeffVector> shortCount = {CoeffVector(8, 1)};
    EXPECT_ANAHEIM_ERROR(conv.convert(shortCount), InvalidArgument,
                         "limb count mismatch");
}

} // namespace
} // namespace anaheim
