#include <gtest/gtest.h>

#include <cmath>

#include "boot/polyeval.h"
#include "ckks/encryptor.h"
#include "common/rng.h"

namespace anaheim {
namespace {

TEST(MonomialToChebyshev, MatchesDirectEvaluation)
{
    const std::vector<double> mono = {0.5, -1.0, 0.25, 2.0, -0.75};
    const auto cheb = monomialToChebyshev(mono);
    for (double x = -1.0; x <= 1.0; x += 0.05) {
        double direct = 0.0, power = 1.0;
        for (double c : mono) {
            direct += c * power;
            power *= x;
        }
        EXPECT_NEAR(chebyshevEvalPlain(cheb, x), direct, 1e-12)
            << "x=" << x;
    }
}

TEST(MonomialToChebyshev, LowDegreeIdentities)
{
    // x^2 = (T_0 + T_2) / 2.
    const auto cheb = monomialToChebyshev({0.0, 0.0, 1.0});
    EXPECT_NEAR(cheb[0], 0.5, 1e-15);
    EXPECT_NEAR(cheb[1], 0.0, 1e-15);
    EXPECT_NEAR(cheb[2], 0.5, 1e-15);
}

class PolyEvalTest : public ::testing::Test
{
  protected:
    PolyEvalTest()
        : context_(CkksParams::testParams(1 << 9, 10, 2)),
          encoder_(context_), keygen_(context_, 17),
          encryptor_(context_, 19),
          decryptor_(context_, keygen_.secretKey()),
          evaluator_(context_, encoder_), relin_(keygen_.makeRelinKey()),
          polyEval_(evaluator_, relin_)
    {
    }

    CkksContext context_;
    CkksEncoder encoder_;
    KeyGenerator keygen_;
    CkksEncryptor encryptor_;
    CkksDecryptor decryptor_;
    CkksEvaluator evaluator_;
    EvalKey relin_;
    PolynomialEvaluator polyEval_;
};

TEST_F(PolyEvalTest, EvaluatesMonomialPolynomials)
{
    Rng rng(33);
    std::vector<std::complex<double>> msg(encoder_.slots());
    for (auto &v : msg)
        v = {2.0 * rng.uniformReal() - 1.0, 0.0};
    const auto ct = encryptor_.encrypt(
        encoder_.encode(msg, context_.maxLevel()), keygen_.secretKey());

    const std::vector<double> poly = {0.1, 0.5, -0.3, 0.0, 0.2};
    const auto result = polyEval_.evaluate(ct, poly);
    const auto out = encoder_.decode(decryptor_.decrypt(result));
    for (size_t i = 0; i < msg.size(); i += 13) {
        double expect = 0.0, power = 1.0;
        for (double c : poly) {
            expect += c * power;
            power *= msg[i].real();
        }
        EXPECT_NEAR(out[i].real(), expect, 1e-3) << "slot " << i;
    }
}

TEST_F(PolyEvalTest, EvaluatesSmoothFunctions)
{
    Rng rng(34);
    std::vector<std::complex<double>> msg(encoder_.slots());
    for (auto &v : msg)
        v = {2.0 * rng.uniformReal() - 1.0, 0.0};
    const auto ct = encryptor_.encrypt(
        encoder_.encode(msg, context_.maxLevel()), keygen_.secretKey());

    auto sigmoid = [](double t) { return 1.0 / (1.0 + std::exp(-3.0 * t)); };
    const auto result = polyEval_.evaluateFunction(ct, sigmoid, 15);
    const auto out = encoder_.decode(decryptor_.decrypt(result));
    for (size_t i = 0; i < msg.size(); i += 17)
        EXPECT_NEAR(out[i].real(), sigmoid(msg[i].real()), 2e-3)
            << "slot " << i;
}

} // namespace
} // namespace anaheim
