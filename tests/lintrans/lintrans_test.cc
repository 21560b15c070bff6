#include <gtest/gtest.h>

#include <complex>

#include "ckks/encryptor.h"
#include "common/rng.h"
#include "lintrans/lintrans.h"

namespace anaheim {
namespace {

using Complex = std::complex<double>;

class LinTransTest : public ::testing::Test
{
  protected:
    LinTransTest()
        : context_(CkksParams::testParams(1 << 9, 6, 2)),
          encoder_(context_), keygen_(context_, 5),
          encryptor_(context_, 15),
          decryptor_(context_, keygen_.secretKey()),
          evaluator_(context_, encoder_),
          transformer_(context_, encoder_, evaluator_)
    {
    }

    std::vector<Complex>
    randomMessage(uint64_t seed)
    {
        Rng rng(seed);
        std::vector<Complex> msg(encoder_.slots());
        for (auto &v : msg) {
            v = {2.0 * rng.uniformReal() - 1.0,
                 2.0 * rng.uniformReal() - 1.0};
        }
        return msg;
    }

    void
    checkAlgorithm(const DiagMatrix &matrix, LinTransAlgorithm algorithm,
                   uint64_t seed, double tolerance = 2e-4)
    {
        const auto msg = randomMessage(seed);
        const auto expect = matrix.apply(msg);
        auto keys = keygen_.makeGaloisKeys(
            LinearTransformer::requiredRotations(matrix, algorithm));
        const auto ct = encryptor_.encrypt(
            encoder_.encode(msg, context_.maxLevel()),
            keygen_.secretKey());
        const auto result = evaluator_.rescale(
            transformer_.apply(ct, matrix, keys, algorithm));
        const auto out = encoder_.decode(decryptor_.decrypt(result));
        for (size_t i = 0; i < expect.size(); ++i) {
            EXPECT_LT(std::abs(out[i] - expect[i]), tolerance)
                << "slot " << i;
        }
    }

    CkksContext context_;
    CkksEncoder encoder_;
    KeyGenerator keygen_;
    CkksEncryptor encryptor_;
    CkksDecryptor decryptor_;
    CkksEvaluator evaluator_;
    LinearTransformer transformer_;
};

TEST_F(LinTransTest, DiagMatrixApplyMatchesDense)
{
    Rng rng(61);
    const auto m = DiagMatrix::random(8, {0, 1, 5}, rng);
    std::vector<Complex> v(8);
    for (auto &x : v)
        x = {rng.uniformReal(), rng.uniformReal()};
    const auto viaDiag = m.apply(v);
    for (size_t i = 0; i < 8; ++i) {
        Complex direct = 0.0;
        for (size_t j = 0; j < 8; ++j)
            direct += m.at(i, j) * v[j];
        EXPECT_LT(std::abs(viaDiag[i] - direct), 1e-12);
    }
}

TEST_F(LinTransTest, DiagMatrixComposeMatchesSequentialApply)
{
    Rng rng(62);
    const auto m1 = DiagMatrix::random(16, {0, 2, 7}, rng);
    const auto m2 = DiagMatrix::random(16, {1, 3}, rng);
    std::vector<Complex> v(16);
    for (auto &x : v)
        x = {rng.uniformReal() - 0.5, rng.uniformReal() - 0.5};
    const auto sequential = m1.apply(m2.apply(v));
    const auto composed = m1.compose(m2).apply(v);
    for (size_t i = 0; i < v.size(); ++i)
        EXPECT_LT(std::abs(sequential[i] - composed[i]), 1e-10);
}

TEST_F(LinTransTest, BaseAlgorithmMatchesPlainApply)
{
    Rng rng(64);
    const auto matrix =
        DiagMatrix::random(encoder_.slots(), {0, 1, 3, 17}, rng);
    checkAlgorithm(matrix, LinTransAlgorithm::Base, 71);
}

TEST_F(LinTransTest, HoistingMatchesPlainApply)
{
    Rng rng(65);
    const auto matrix =
        DiagMatrix::random(encoder_.slots(), {0, 1, 3, 17}, rng);
    checkAlgorithm(matrix, LinTransAlgorithm::Hoisting, 72);
}

TEST_F(LinTransTest, MinKsMatchesPlainApply)
{
    Rng rng(66);
    const auto matrix =
        DiagMatrix::random(encoder_.slots(), {0, 1, 3, 6}, rng);
    checkAlgorithm(matrix, LinTransAlgorithm::MinKS, 73, 1e-3);
}

TEST_F(LinTransTest, BsgsHoistingMatchesPlainApply)
{
    Rng rng(67);
    const size_t slots = encoder_.slots();
    const auto matrix = DiagMatrix::random(
        slots, {0, 1, 2, 5, 9, 14, 20, 33}, rng);
    checkAlgorithm(matrix, LinTransAlgorithm::BsgsHoisting, 74, 1e-3);

    // A band that wraps around index 0 (negative offsets -3..-1) and a
    // strided set whose upper half is negative offsets: the shapes of
    // the bootstrap's DFT factors, split over signed offsets.
    const auto band = DiagMatrix::random(
        slots, {slots - 3, slots - 2, slots - 1, 0, 1, 2, 3}, rng);
    checkAlgorithm(band, LinTransAlgorithm::BsgsHoisting, 77, 1e-3);
    std::vector<size_t> strided;
    for (size_t d = 0; d <= 240; d += 16)
        strided.push_back(d);
    const auto stride = DiagMatrix::random(slots, strided, rng);
    checkAlgorithm(stride, LinTransAlgorithm::BsgsHoisting, 78, 1e-3);
}

TEST_F(LinTransTest, AlgorithmsAgreeWithEachOther)
{
    Rng rng(68);
    const auto matrix =
        DiagMatrix::random(encoder_.slots(), {0, 2, 8}, rng);
    const auto msg = randomMessage(75);
    const auto ct = encryptor_.encrypt(
        encoder_.encode(msg, context_.maxLevel()), keygen_.secretKey());

    std::vector<std::vector<Complex>> results;
    for (auto algorithm :
         {LinTransAlgorithm::Base, LinTransAlgorithm::Hoisting,
          LinTransAlgorithm::MinKS, LinTransAlgorithm::BsgsHoisting}) {
        auto keys = keygen_.makeGaloisKeys(
            LinearTransformer::requiredRotations(matrix, algorithm));
        const auto result = evaluator_.rescale(
            transformer_.apply(ct, matrix, keys, algorithm));
        results.push_back(encoder_.decode(decryptor_.decrypt(result)));
    }
    for (size_t alg = 1; alg < results.size(); ++alg)
        for (size_t i = 0; i < results[0].size(); ++i)
            EXPECT_LT(std::abs(results[alg][i] - results[0][i]), 1e-3)
                << "algorithm " << alg << " slot " << i;
}

TEST_F(LinTransTest, RequiredRotationsMinKsNeedsOnlyUnitStep)
{
    Rng rng(69);
    const auto matrix =
        DiagMatrix::random(encoder_.slots(), {0, 3, 11, 40}, rng);
    const auto rotations = LinearTransformer::requiredRotations(
        matrix, LinTransAlgorithm::MinKS);
    EXPECT_EQ(rotations, std::vector<int>{1});
    // Hoisting needs a key per nonzero diagonal — the 4x evk difference
    // of Fig. 1's table.
    const auto hoistRotations = LinearTransformer::requiredRotations(
        matrix, LinTransAlgorithm::Hoisting);
    EXPECT_EQ(hoistRotations.size(), 3u);
}

TEST_F(LinTransTest, IdentityMatrixIsIdentity)
{
    DiagMatrix identity(encoder_.slots());
    auto &diag = identity.diagonal(0);
    for (auto &v : diag)
        v = {1.0, 0.0};
    checkAlgorithm(identity, LinTransAlgorithm::Hoisting, 76);
}

} // namespace
} // namespace anaheim
