/**
 * Private logistic-regression inference (the HELR workload's serving
 * side): the client encrypts feature vectors; the server computes
 * sigmoid(w . x + b) under encryption — a dot product via rotations
 * plus an encrypted sigmoid through arbitrary polynomial evaluation
 * (§V-C's "DNN support" routines) — and never sees the data. Exits 1
 * when the score error passes its bound (about 65x the error these
 * parameters give).
 *
 *   ./private_inference
 */

#include <cmath>
#include <cstdio>

#include "boot/polyeval.h"
#include "ckks/encryptor.h"
#include "common/status.h"

using namespace anaheim;
using Complex = std::complex<double>;

static int
run()
{
    const CkksContext context(CkksParams::testParams(1 << 11, 12, 3));
    const CkksEncoder encoder(context);
    KeyGenerator keygen(context, 123);
    CkksEncryptor encryptor(context);
    const CkksDecryptor decryptor(context, keygen.secretKey());
    const CkksEvaluator evaluator(context, encoder);
    const EvalKey relin = keygen.makeRelinKey();
    const PolynomialEvaluator polyEval(evaluator, relin);

    // A batch of samples packed one-per-slot-group: 16 features.
    const size_t features = 16;
    const size_t batch = encoder.slots() / features;
    Rng rng(9);
    std::vector<double> weights(features), x(encoder.slots());
    for (auto &w : weights)
        w = 0.8 * (2.0 * rng.uniformReal() - 1.0) / features;
    for (auto &v : x)
        v = 2.0 * rng.uniformReal() - 1.0;

    std::printf("private inference: %zu samples x %zu features\n", batch,
                features);

    // Client: encrypt the feature matrix.
    const auto ct = encryptor.encrypt(
        encoder.encodeReal(x, context.maxLevel()), keygen.secretKey());

    // Server: logits = w . x via PMULT + rotate-and-sum tree.
    std::vector<double> weightPlain(encoder.slots());
    for (size_t i = 0; i < encoder.slots(); ++i)
        weightPlain[i] = weights[i % features];
    auto logits = evaluator.rescale(evaluator.mulPlain(
        ct, encoder.encodeReal(weightPlain, context.maxLevel())));

    std::vector<int> shifts;
    for (size_t step = features / 2; step >= 1; step /= 2)
        shifts.push_back(static_cast<int>(step));
    auto keys = keygen.makeGaloisKeys(shifts);
    for (int step : shifts)
        logits = evaluator.add(logits, evaluator.rotate(logits, step, keys));

    // Server: sigmoid via degree-15 polynomial evaluation.
    const auto scores = polyEval.evaluateFunction(
        logits, [](double t) { return 1.0 / (1.0 + std::exp(-4.0 * t)); },
        15);

    // Client: decrypt and compare against the plain pipeline.
    const auto out = encoder.decode(decryptor.decrypt(scores));
    double worst = 0.0;
    for (size_t s = 0; s < std::min<size_t>(batch, 512); ++s) {
        double logit = 0.0;
        for (size_t f = 0; f < features; ++f)
            logit += weights[f] * x[s * features + f];
        const double expect = 1.0 / (1.0 + std::exp(-4.0 * logit));
        worst = std::max(worst,
                         std::abs(out[s * features].real() - expect));
    }
    constexpr double kMaxError = 1.5e-4;
    std::printf("sigmoid(w.x) under encryption: max error %.3e (bound "
                "%.1e) over %zu samples\n",
                worst, kMaxError, std::min<size_t>(batch, 512));
    if (!(worst <= kMaxError)) {
        std::printf("FAILED: error past its bound\n");
        return 1;
    }
    std::printf("done — the server never saw a feature or a score.\n");
    return 0;
}

int
main()
{
    return runGuardedMain("private_inference", run);
}
