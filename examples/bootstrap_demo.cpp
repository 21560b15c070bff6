/**
 * Bootstrapping demo: exhaust a ciphertext's level budget, refresh it
 * with full CKKS bootstrapping (ModRaise -> CoeffToSlot -> EvalMod ->
 * SlotToCoeff), and keep computing — the defining capability of *fully*
 * homomorphic encryption (§II-C). The level budget burns on
 * multiplications by 1.0, so the bootstrap's input keeps the message's
 * amplitude and its error is measured against that amplitude. Exits 1
 * when the bootstrap's or the final square's error passes its bound
 * (each about 10x the error these parameters give).
 *
 *   ./bootstrap_demo
 */

#include <chrono>
#include <cstdio>

#include "boot/bootstrapper.h"
#include "ckks/encryptor.h"
#include "common/status.h"

using namespace anaheim;
using Complex = std::complex<double>;

static int
run()
{
    const CkksContext context(CkksParams::bootstrapParams(1 << 11));
    const CkksEncoder encoder(context);
    KeyGenerator keygen(context, 5);
    CkksEncryptor encryptor(context);
    const CkksDecryptor decryptor(context, keygen.secretKey());
    const CkksEvaluator evaluator(context, encoder);

    std::printf("bootstrap demo: N=%zu, L=%zu, alpha=%zu (D=%zu)\n",
                context.degree(), context.maxLevel(), context.alpha(),
                context.dnum());

    std::printf("preparing bootstrapper (DFT factors + keys)...\n");
    const auto setupStart = std::chrono::steady_clock::now();
    Bootstrapper boot(context, encoder, evaluator, keygen);
    const double setupS =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - setupStart)
            .count();
    std::printf("  setup %.1fs; bootstrap output level = %zu "
                "(CtS %zu + EvalMod %zu + StC %zu levels consumed)\n",
                setupS, boot.outputLevel(), boot.coeffToSlotDepth(),
                boot.evalModDepth(), boot.slotToCoeffDepth());

    // Message small relative to q0/Delta, per CKKS bootstrap practice.
    constexpr double kAmplitude = 1.0 / 64.0;
    Rng rng(6);
    std::vector<Complex> msg(encoder.slots());
    for (auto &v : msg)
        v = {(2.0 * rng.uniformReal() - 1.0) * kAmplitude, 0.0};

    auto ct = encryptor.encrypt(encoder.encode(msg, 3),
                                keygen.secretKey());
    const auto relin = keygen.makeRelinKey();

    // Burn the level budget without shrinking the message.
    while (ct.level > 1) {
        ct = evaluator.rescale(evaluator.mulConst(ct, 1.0));
        std::printf("  multiplied by 1.0; level now %zu\n", ct.level);
    }

    std::printf("level exhausted — bootstrapping...\n");
    const auto start = std::chrono::steady_clock::now();
    ct = boot.bootstrap(ct);
    const double bootS =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    std::printf("  bootstrap took %.1fs; level restored to %zu\n", bootS,
                ct.level);

    // Max error of `ct` against `expect`, relative to `scale`.
    const auto relativeError = [&](const Ciphertext &x,
                                   const std::vector<Complex> &expect,
                                   double scale) {
        const auto out = encoder.decode(decryptor.decrypt(x));
        double worst = 0.0;
        for (size_t i = 0; i < out.size(); ++i)
            worst = std::max(worst, std::abs(out[i] - expect[i]));
        return worst / scale;
    };
    constexpr double kMaxBootError = 5e-2;
    const double bootError = relativeError(ct, msg, kAmplitude);
    std::printf("bootstrap: max error %.3e of the amplitude (bound %.1e)\n",
                bootError, kMaxBootError);

    // Keep computing on the refreshed ciphertext.
    ct = evaluator.rescale(evaluator.square(ct, relin));
    auto squared = msg;
    for (auto &v : squared)
        v *= v;
    constexpr double kMaxSquareError = 5e-2;
    const double squareError =
        relativeError(ct, squared, kAmplitude * kAmplitude);
    std::printf("post-bootstrap square: max error %.3e of the amplitude "
                "squared (bound %.1e) at level %zu\n",
                squareError, kMaxSquareError, ct.level);
    if (!(bootError <= kMaxBootError && squareError <= kMaxSquareError)) {
        std::printf("FAILED: error past its bound\n");
        return 1;
    }
    return 0;
}

int
main()
{
    return runGuardedMain("bootstrap_demo", run);
}
