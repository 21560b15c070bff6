/**
 * Encrypted matrix-vector product — the homomorphic linear transform at
 * the heart of bootstrapping and private DNN inference (§III-B), run
 * with all four algorithm variants (Base / Hoisting / MinKS / BSGS) and
 * cross-checked against the plain product. Also prints the evk-count
 * vs computation trade-off the paper analyzes. Exits 1 when an
 * algorithm's error passes the bound (about 65x the worst error these
 * parameters give, MinKS's).
 *
 *   ./encrypted_matvec
 */

#include <chrono>
#include <cstdio>

#include "ckks/encryptor.h"
#include "common/status.h"
#include "lintrans/lintrans.h"

using namespace anaheim;
using Complex = std::complex<double>;

static int
run()
{
    const CkksContext context(CkksParams::testParams(1 << 11, 6, 2));
    const CkksEncoder encoder(context);
    KeyGenerator keygen(context, 7);
    CkksEncryptor encryptor(context);
    const CkksDecryptor decryptor(context, keygen.secretKey());
    const CkksEvaluator evaluator(context, encoder);
    const LinearTransformer transformer(context, encoder, evaluator);

    // A banded matrix (8 diagonals) on the slot vector, like one DFT
    // factor of CoeffToSlot.
    Rng rng(99);
    const auto matrix = DiagMatrix::random(
        encoder.slots(), {0, 1, 2, 3, 8, 16, 24, 32}, rng);

    std::vector<Complex> x(encoder.slots());
    for (auto &value : x)
        value = {2.0 * rng.uniformReal() - 1.0,
                 2.0 * rng.uniformReal() - 1.0};
    const auto expect = matrix.apply(x);

    const auto ct = encryptor.encrypt(
        encoder.encode(x, context.maxLevel()), keygen.secretKey());

    constexpr double kMaxError = 5e-6;
    std::printf("encrypted mat-vec, %zu slots, %zu diagonals, error "
                "bound %.1e\n",
                encoder.slots(), matrix.diagonalCount(), kMaxError);
    std::printf("%-14s %10s %10s %12s\n", "algorithm", "time", "evks",
                "max error");

    const struct {
        const char *name;
        LinTransAlgorithm algorithm;
    } algorithms[] = {
        {"Base", LinTransAlgorithm::Base},
        {"Hoisting", LinTransAlgorithm::Hoisting},
        {"MinKS", LinTransAlgorithm::MinKS},
        {"BSGS-hoist", LinTransAlgorithm::BsgsHoisting},
    };
    bool withinBound = true;
    for (const auto &entry : algorithms) {
        const auto rotations = LinearTransformer::requiredRotations(
            matrix, entry.algorithm);
        auto keys = keygen.makeGaloisKeys(rotations);

        const auto start = std::chrono::steady_clock::now();
        const auto result = evaluator.rescale(transformer.apply(
            ct, matrix, keys, entry.algorithm));
        const auto stop = std::chrono::steady_clock::now();

        const auto out = encoder.decode(decryptor.decrypt(result));
        double worst = 0.0;
        for (size_t i = 0; i < out.size(); ++i)
            worst = std::max(worst, std::abs(out[i] - expect[i]));
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start)
                .count();
        std::printf("%-14s %8.1fms %10zu %12.3e\n", entry.name, ms,
                    rotations.size(), worst);
        withinBound = withinBound && worst <= kMaxError;
    }
    if (!withinBound) {
        std::printf("FAILED: an algorithm's error is past %.1e\n",
                    kMaxError);
        return 1;
    }
    std::printf("note: MinKS trades one evk for extra rotations — the\n"
                "ASIC-vs-GPU algorithm choice discussed in the paper.\n");
    return 0;
}

int
main()
{
    return runGuardedMain("encrypted_matvec", run);
}
