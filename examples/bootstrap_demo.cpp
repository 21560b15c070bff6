/**
 * Bootstrapping demo: exhaust a ciphertext's level budget with repeated
 * squarings, refresh it with full CKKS bootstrapping (ModRaise ->
 * CoeffToSlot -> EvalMod -> SlotToCoeff), and keep computing — the
 * defining capability of *fully* homomorphic encryption (§II-C).
 * Exits 1 when the final error passes its bound (about 75x the error
 * these parameters give).
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
    Rng rng(6);
    std::vector<Complex> msg(encoder.slots());
    for (auto &v : msg)
        v = {(2.0 * rng.uniformReal() - 1.0) / 64.0, 0.0};

    auto ct = encryptor.encrypt(encoder.encode(msg, 3),
                                keygen.secretKey());
    const auto relin = keygen.makeRelinKey();

    // Burn the level budget.
    auto expect = msg;
    while (ct.level > 1) {
        ct = evaluator.rescale(evaluator.square(ct, relin));
        for (auto &v : expect)
            v *= v;
        std::printf("  squared; level now %zu\n", ct.level);
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

    // Keep computing on the refreshed ciphertext.
    ct = evaluator.rescale(evaluator.square(ct, relin));
    for (auto &v : expect)
        v *= v;

    const auto out = encoder.decode(decryptor.decrypt(ct));
    double worst = 0.0;
    for (size_t i = 0; i < out.size(); ++i)
        worst = std::max(worst, std::abs(out[i] - expect[i]));
    constexpr double kMaxError = 1.5e-6;
    std::printf("post-bootstrap square: max error %.3e (bound %.1e) at "
                "level %zu\n",
                worst, kMaxError, ct.level);
    if (!(worst <= kMaxError)) {
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
