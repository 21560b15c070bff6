/**
 * @file
 * Host timings of the functional CKKS library — the substrate
 * everything else is validated against: the forward NTT at N = 2^10,
 * 2^12 and 2^14; HAdd, PMult, HMult, HRot, hoisted rotations {1, 8}
 * and Encode at testParams(2^12, 8, 2); and the functional PIM PAccum
 * over four 4096-element vectors. One row per operation: the mean time
 * of one call in the fastest of 5 batches of 10 calls.
 *
 * Flags (parsed by bench::Flags, bench_util.h):
 *   --smoke          one batch of one call per operation, for ctest
 *   --json <path>    the rows; --trace/--metrics/--prom as every bench
 */

#include <complex>
#include <cstdint>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/rng.h"
#include "math/ntt.h"
#include "math/primes.h"
#include "pim/functional.h"

using namespace anaheim;

namespace {

/** Keys, one ciphertext and one plaintext at testParams(2^12, 8, 2). */
struct Fixture {
    Fixture()
        : context(CkksParams::testParams(1 << 12, 8, 2)),
          encoder(context), keygen(context, 41), encryptor(context, 43),
          evaluator(context, encoder), relin(keygen.makeRelinKey()),
          keys(keygen.makeGaloisKeys({1, 8}))
    {
        Rng rng(47);
        msg.resize(encoder.slots());
        for (auto &v : msg)
            v = {rng.uniformReal() - 0.5, rng.uniformReal() - 0.5};
        pt = encoder.encode(msg, context.maxLevel());
        ct = encryptor.encrypt(pt, keygen.secretKey());
    }

    CkksContext context;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
    CkksEvaluator evaluator;
    EvalKey relin;
    GaloisKeys keys;
    std::vector<std::complex<double>> msg;
    Ciphertext ct;
    Plaintext pt;
};

/** `count` uniform vectors of `length` residues mod q. */
std::vector<PimVector>
randomPimVectors(Rng &rng, uint64_t q, size_t count, size_t length)
{
    std::vector<PimVector> vectors(count, PimVector(length));
    for (auto &vector : vectors) {
        for (auto &value : vector)
            value = static_cast<uint32_t>(rng.uniform(q));
    }
    return vectors;
}

} // namespace

static int
run(int argc, char **argv)
{
    size_t batches = 5;
    size_t calls = 10;
    bench::Flags flags("bench_functional_ckks", argc, argv);
    const bool smoke = flags.smoke();
    if (smoke)
        batches = calls = 1;
    bench::JsonScope json("functional_ckks", flags);
    json.report().metric("smoke", smoke ? "yes" : "no");
    json.report().metric("batches", static_cast<double>(batches));
    json.report().metric("calls_per_batch", static_cast<double>(calls));

    bench::header("Functional CKKS library: host time per call");
    bench::note("HE ops at testParams(2^12, 8, 2), NTT on a 50-bit "
                "prime; fastest batch, mean per call");
    bench::Table table(json.report(), {
        {"op", "op", "%-18s"},
        {"n", "N", "%6.0f"},
        {"us_per_call", "us/call", "%10.2f"},
    });
    const auto timeRow = [&](const char *op, size_t n,
                             const std::function<void()> &call) {
        const double ns = bench::bestOfNs(batches, [&] {
            for (size_t c = 0; c < calls; ++c)
                call();
        });
        table.row({op, n, ns * 1e-3 / static_cast<double>(calls)});
    };

    for (const size_t n : {size_t{1} << 10, size_t{1} << 12,
                           size_t{1} << 14}) {
        const uint64_t q = generateNttPrimes(n, 50, 1)[0];
        const NttTable ntt(q, n);
        Rng rng(3);
        CoeffVector data = sampleUniform(rng, n, q);
        timeRow("NTT forward", n, [&] { ntt.forward(data.data()); });
    }

    Fixture f;
    const size_t n = f.context.degree();
    Ciphertext out;
    std::vector<Ciphertext> rotated;
    Plaintext encoded;
    timeRow("HAdd", n, [&] { out = f.evaluator.add(f.ct, f.ct); });
    timeRow("PMult", n, [&] { out = f.evaluator.mulPlain(f.ct, f.pt); });
    timeRow("HMult", n,
            [&] { out = f.evaluator.multiply(f.ct, f.ct, f.relin); });
    timeRow("HRot", n, [&] { out = f.evaluator.rotate(f.ct, 1, f.keys); });
    timeRow("HRot hoisted {1,8}", n, [&] {
        rotated = f.evaluator.rotateHoisted(f.ct, {1, 8}, f.keys);
    });
    timeRow("Encode", n, [&] {
        encoded = f.encoder.encode(f.msg, f.context.maxLevel());
    });

    const uint64_t q = generateNttPrimes(1024, 28, 1)[0];
    const PimFunctionalUnit unit(q);
    Rng rng(31);
    const auto a = randomPimVectors(rng, q, 4, 4096);
    const auto b = randomPimVectors(rng, q, 4, 4096);
    const auto p = randomPimVectors(rng, q, 4, 4096);
    std::pair<PimVector, PimVector> accumulated;
    timeRow("PIM PAccum", 4096,
            [&] { accumulated = unit.pAccum(a, b, p); });
    return 0;
}

int
main(int argc, char **argv)
{
    return runGuardedMain("bench_functional_ckks",
                          [&] { return run(argc, argv); });
}
