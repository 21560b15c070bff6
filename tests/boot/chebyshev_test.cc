#include <gtest/gtest.h>

#include <cmath>

#include "boot/chebyshev.h"
#include "ckks/encryptor.h"
#include "common/rng.h"

namespace anaheim {
namespace {

TEST(ChebyshevFit, ReproducesSmoothFunctions)
{
    const auto coeffs =
        chebyshevFit([](double x) { return std::exp(x); }, 15);
    for (double x = -1.0; x <= 1.0; x += 0.05) {
        EXPECT_NEAR(chebyshevEvalPlain(coeffs, x), std::exp(x), 1e-10)
            << "x=" << x;
    }
}

TEST(ChebyshevFit, ReproducesOscillatoryFunctions)
{
    // The EvalMod regime: a scaled cosine with several periods.
    const auto coeffs = chebyshevFit(
        [](double x) { return std::cos(12.0 * x - 0.2); }, 47);
    for (double x = -1.0; x <= 1.0; x += 0.01) {
        EXPECT_NEAR(chebyshevEvalPlain(coeffs, x),
                    std::cos(12.0 * x - 0.2), 1e-8);
    }
}

TEST(ChebyshevFit, LowDegreeExactForPolynomials)
{
    // f(x) = 2x^2 - 1 = T_2 exactly.
    const auto coeffs =
        chebyshevFit([](double x) { return 2.0 * x * x - 1.0; }, 4);
    EXPECT_NEAR(coeffs[0], 0.0, 1e-12);
    EXPECT_NEAR(coeffs[1], 0.0, 1e-12);
    EXPECT_NEAR(coeffs[2], 1.0, 1e-12);
    EXPECT_NEAR(coeffs[3], 0.0, 1e-12);
    EXPECT_NEAR(coeffs[4], 0.0, 1e-12);
}

class ChebyshevHomTest : public ::testing::Test
{
  protected:
    ChebyshevHomTest()
        : context_(CkksParams::testParams(1 << 9, 12, 3)),
          encoder_(context_), keygen_(context_, 3),
          encryptor_(context_, 13),
          decryptor_(context_, keygen_.secretKey()),
          evaluator_(context_, encoder_),
          relin_(keygen_.makeRelinKey()),
          cheby_(evaluator_, relin_)
    {
    }

    CkksContext context_;
    CkksEncoder encoder_;
    KeyGenerator keygen_;
    CkksEncryptor encryptor_;
    CkksDecryptor decryptor_;
    CkksEvaluator evaluator_;
    EvalKey relin_;
    ChebyshevEvaluator cheby_;
};

TEST_F(ChebyshevHomTest, HomomorphicMatchesPlainEvaluation)
{
    Rng rng(91);
    std::vector<std::complex<double>> msg(encoder_.slots());
    for (auto &v : msg)
        v = {2.0 * rng.uniformReal() - 1.0, 0.0};
    const auto ct = encryptor_.encrypt(
        encoder_.encode(msg, context_.maxLevel()), keygen_.secretKey());

    const auto coeffs =
        chebyshevFit([](double x) { return std::sin(3.0 * x); }, 15);
    const auto result = cheby_.evaluate(ct, coeffs);
    const auto out = encoder_.decode(decryptor_.decrypt(result));
    for (size_t i = 0; i < msg.size(); ++i) {
        EXPECT_NEAR(out[i].real(),
                    chebyshevEvalPlain(coeffs, msg[i].real()), 2e-3)
            << "slot " << i;
    }
}

TEST_F(ChebyshevHomTest, HigherDegreeStillAccurate)
{
    Rng rng(92);
    std::vector<std::complex<double>> msg(encoder_.slots());
    for (auto &v : msg)
        v = {2.0 * rng.uniformReal() - 1.0, 0.0};
    const auto ct = encryptor_.encrypt(
        encoder_.encode(msg, context_.maxLevel()), keygen_.secretKey());

    const auto coeffs = chebyshevFit(
        [](double x) { return std::cos(8.0 * x + 0.3); }, 31);
    const auto result = cheby_.evaluate(ct, coeffs);
    EXPECT_LE(ChebyshevEvaluator::depthForDegree(31),
              context_.maxLevel() - result.level);
    const auto out = encoder_.decode(decryptor_.decrypt(result));
    for (size_t i = 0; i < msg.size(); i += 7) {
        EXPECT_NEAR(out[i].real(),
                    chebyshevEvalPlain(coeffs, msg[i].real()), 5e-3)
            << "slot " << i;
    }
}

TEST_F(ChebyshevHomTest, DepthMatchesPrediction)
{
    Rng rng(93);
    std::vector<std::complex<double>> msg(encoder_.slots(), {0.5, 0.0});
    const auto ct = encryptor_.encrypt(
        encoder_.encode(msg, context_.maxLevel()), keygen_.secretKey());
    const auto coeffs =
        chebyshevFit([](double x) { return x * x * x; }, 7);
    const auto result = cheby_.evaluate(ct, coeffs);
    const size_t consumed = context_.maxLevel() - result.level;
    EXPECT_LE(consumed, ChebyshevEvaluator::depthForDegree(7));
}

} // namespace
} // namespace anaheim
