/**
 * Quickstart: the CKKS basics end to end — encode a complex vector,
 * encrypt it, compute homomorphically (add, multiply, rotate), decrypt
 * and check the error. Exits 1 when an error passes its bound (about
 * 70x the error these parameters give).
 *
 *   ./quickstart
 */

#include <complex>
#include <cstdio>
#include <vector>

#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/status.h"

using namespace anaheim;
using Complex = std::complex<double>;

static int
run()
{
    // Small, fast parameters: N = 2^12 (2048 slots), 8 levels.
    const CkksContext context(CkksParams::testParams(1 << 12, 8, 2));
    const CkksEncoder encoder(context);
    KeyGenerator keygen(context, /*seed=*/2024);
    CkksEncryptor encryptor(context);
    const CkksDecryptor decryptor(context, keygen.secretKey());
    const CkksEvaluator evaluator(context, encoder);

    std::printf("CKKS quickstart: N=%zu, %zu slots, L=%zu levels\n",
                context.degree(), encoder.slots(), context.maxLevel());

    // Messages.
    std::vector<Complex> u(encoder.slots()), v(encoder.slots());
    for (size_t i = 0; i < u.size(); ++i) {
        u[i] = {0.5 * std::cos(0.01 * i), 0.0};
        v[i] = {0.25, 0.25};
    }

    // Encrypt.
    auto ctU = encryptor.encrypt(encoder.encode(u, context.maxLevel()),
                                 keygen.secretKey());
    auto ctV = encryptor.encrypt(encoder.encode(v, context.maxLevel()),
                                 keygen.secretKey());

    // HADD: u + v.
    const auto sum = evaluator.add(ctU, ctV);

    // HMULT: u * v (tensor + relinearize + rescale).
    const auto relin = keygen.makeRelinKey();
    const auto prod =
        evaluator.rescale(evaluator.multiply(ctU, ctV, relin));

    // HROT: rotate u left by 3 slots.
    auto galois = keygen.makeGaloisKeys({3});
    const auto rotated = evaluator.rotate(ctU, 3, galois);

    // Decrypt and verify.
    bool withinBounds = true;
    auto check = [&](const char *label, const Ciphertext &ct, double bound,
                     auto expectAt) {
        const auto out = encoder.decode(decryptor.decrypt(ct));
        double worst = 0.0;
        for (size_t i = 0; i < out.size(); ++i)
            worst = std::max(worst, std::abs(out[i] - expectAt(i)));
        std::printf("  %-18s max error %.3e (bound %.1e)  (level %zu)\n",
                    label, worst, bound, ct.level);
        withinBounds = withinBounds && worst <= bound;
    };
    check("u + v", sum, 5e-8, [&](size_t i) { return u[i] + v[i]; });
    check("u * v", prod, 2.5e-7, [&](size_t i) { return u[i] * v[i]; });
    check("u <<< 3", rotated, 3e-6,
          [&](size_t i) { return u[(i + 3) % u.size()]; });

    if (!withinBounds) {
        std::printf("FAILED: an error is past its bound\n");
        return 1;
    }
    std::printf("done.\n");
    return 0;
}

int
main()
{
    return runGuardedMain("quickstart", run);
}
