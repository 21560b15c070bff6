/**
 * @file
 * Backend invariance in context: every runnable kernel backend, pinned
 * with kernels::setBackend, must give bitwise-equal ciphertexts for the
 * keyswitch-heavy ops. The kernel matrix (tests/math) checks each entry
 * point alone; this checks that the range splits hold where the
 * library calls them — a BConv accumulating residues of a wider source
 * prime into a narrower target, the q0/P limbs beside the scale
 * primes — at the op-mix and the bootstrap parameters.
 */

#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/rng.h"
#include "math/kernels.h"

namespace anaheim {
namespace {

using Complex = std::complex<double>;

/** Every polynomial the checked ops produce, in a fixed order. */
std::vector<Polynomial>
keyswitchOutputs(const CkksContext &context, uint64_t seed)
{
    const CkksEncoder encoder(context);
    KeyGenerator keygen(context, seed);
    CkksEncryptor encryptor(context, seed + 1);
    const CkksEvaluator evaluator(context, encoder);
    const EvalKey relin = keygen.makeRelinKey();
    const std::vector<int> rotations = {1, 2, 3};
    const GaloisKeys galois = keygen.makeGaloisKeys(rotations);

    Rng rng(seed + 2);
    auto encryptRandom = [&] {
        std::vector<Complex> msg(encoder.slots());
        for (auto &v : msg)
            v = {2.0 * rng.uniformReal() - 1.0, 2.0 * rng.uniformReal() - 1.0};
        return encryptor.encrypt(encoder.encode(msg, context.maxLevel()),
                                 keygen.secretKey());
    };
    const Ciphertext x = encryptRandom();
    const Ciphertext y = encryptRandom();

    std::vector<Polynomial> out;
    auto keep = [&](const Ciphertext &ct) {
        out.push_back(ct.b);
        out.push_back(ct.a);
    };
    keep(evaluator.rescale(evaluator.multiply(x, y, relin)));
    keep(evaluator.rotate(x, 1, galois));
    for (const Ciphertext &ct : evaluator.rotateHoisted(x, rotations, galois))
        keep(ct);

    const KeySwitcher &ks = evaluator.keySwitcher();
    const std::vector<Polynomial> digits = ks.modUp(x.a);
    out.insert(out.end(), digits.begin(), digits.end());
    const auto [d0, d1] = ks.keyMult(digits, relin);
    out.push_back(d0);
    out.push_back(d1);
    out.push_back(ks.modDown(d0));
    out.push_back(ks.modDown(d1));
    return out;
}

void
expectEveryBackendAgrees(const CkksParams &params)
{
    const CkksContext context(params);
    kernels::setBackend(kernels::Backend::Scalar);
    const std::vector<Polynomial> want = keyswitchOutputs(context, 41);
    for (const kernels::KernelOps *ops : kernels::compiledBackends()) {
        if (!kernels::setBackend(ops->backend))
            continue; // compiled in, but this CPU cannot run it
        const std::vector<Polynomial> got = keyswitchOutputs(context, 41);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_TRUE(got[i] == want[i])
                << ops->name << " differs from scalar at output " << i;
    }
    kernels::resetBackend();
}

TEST(BackendInvariance, OpMixParamsGiveBitwiseEqualCiphertexts)
{
    expectEveryBackendAgrees(CkksParams::testParams(1 << 12, 8, 2));
}

TEST(BackendInvariance, BootstrapParamsGiveBitwiseEqualCiphertexts)
{
    expectEveryBackendAgrees(CkksParams::bootstrapParams(1 << 11));
}

} // namespace
} // namespace anaheim
