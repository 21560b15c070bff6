/**
 * @file
 * Functional-library workloads and the probe of the layers under them
 * (common pool, math, poly, rns, ckks, lintrans, boot).
 *
 * ckks-mix:  one op-mix request = HAdd, PMult, HMult + relinearize +
 *            rescale, HRot and a 3-rotation rotateHoisted on seeded
 *            slots at testParams(2^12, 8, 2). Ciphertexts stay in cache.
 * ckks-boot: one bootstrap of a fresh level-1 ciphertext at
 *            bootstrapParams(2^11); the rotation keys stream from memory.
 * Both run a closed loop with one client, on the one-thread pool every
 * workload uses (main.cc); the probe times the default pool apart.
 */

#include <cmath>
#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "boot/bootstrapper.h"
#include "boot/dft.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "lintrans/lintrans.h"
#include "math/ntt.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using namespace anaheim;
using Complex = std::complex<double>;
using Slots = std::vector<Complex>;

/** Seed roles derived from `--seed`. */
enum SeedRole : uint64_t {
    kSlotsX,
    kSlotsY,
    kSlotsPlain,
    kSlotsBoot,
    kKeys,
    kEncrypt,
};

/** HRot distance and rotation set of the op-mix request. */
constexpr int kRotation = 1;
const std::vector<int> kHoisted = {1, 2, 3};

/** Decryption tolerances of the unit tests: evaluator_test.cc (1e-5
 *  for HAdd/PMult, 1e-4 once a keyswitch is involved) and the
 *  BootstrapTest bound 2^-10. */
constexpr double kLinearTol = 1e-5;
constexpr double kKeySwitchTol = 1e-4;
const double kBootTol = std::ldexp(1.0, -10);

Slots
randomSlots(uint64_t seed, size_t count, double amplitude)
{
    Rng rng(seed);
    Slots slots(count);
    for (auto &v : slots) {
        v = {amplitude * (2.0 * rng.uniformReal() - 1.0),
             amplitude * (2.0 * rng.uniformReal() - 1.0)};
    }
    return slots;
}

double
maxError(const Slots &a, const Slots &b)
{
    double worst = 0.0;
    for (size_t i = 0; i < a.size() && i < b.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return a.size() == b.size() ? worst : INFINITY;
}

/** Slot vector rotated left by r (what HRot by r decrypts to). */
Slots
rotated(const Slots &u, int r)
{
    const size_t n = u.size();
    Slots out(n);
    const size_t shift =
        static_cast<size_t>((r % static_cast<int>(n) + static_cast<int>(n)) %
                            static_cast<int>(n));
    for (size_t i = 0; i < n; ++i)
        out[i] = u[(i + shift) % n];
    return out;
}

void
addCiphertext(Digest &digest, const Ciphertext &ct)
{
    for (const Polynomial *poly : {&ct.b, &ct.a}) {
        for (const auto &limb : poly->limbs())
            digest.addWords(limb);
    }
    digest.add(static_cast<uint64_t>(ct.level));
    digest.add(ct.scale);
}

std::vector<int>
mixRotations()
{
    std::vector<int> rotations = kHoisted;
    rotations.push_back(kRotation);
    return rotations;
}

/** Everything an op-mix request reads. Held by pointer: the evaluator
 *  and keys refer to the context. */
struct MixState {
    explicit MixState(uint64_t seed)
        : context(CkksParams::testParams(1 << 12, 8, 2)), encoder(context),
          keygen(context, subSeed(seed, kKeys)),
          encryptor(context, subSeed(seed, kEncrypt)),
          decryptor(context, keygen.secretKey()),
          evaluator(context, encoder), relin(keygen.makeRelinKey()),
          galois(keygen.makeGaloisKeys(mixRotations()))
    {
        const size_t slots = encoder.slots();
        const size_t level = context.maxLevel();
        u = randomSlots(subSeed(seed, kSlotsX), slots, 1.0);
        v = randomSlots(subSeed(seed, kSlotsY), slots, 1.0);
        w = randomSlots(subSeed(seed, kSlotsPlain), slots, 1.0);
        x = encryptor.encrypt(encoder.encode(u, level), keygen.secretKey());
        y = encryptor.encrypt(encoder.encode(v, level), keygen.secretKey());
        plain = encoder.encode(w, level);
    }

    Slots
    decrypt(const Ciphertext &ct) const
    {
        return encoder.decode(decryptor.decrypt(ct));
    }

    CkksContext context;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
    CkksDecryptor decryptor;
    CkksEvaluator evaluator;
    EvalKey relin;
    GaloisKeys galois;
    Slots u, v, w;
    Ciphertext x, y;
    Plaintext plain;
};

struct MixOutputs {
    Ciphertext add, pmult, hmult, rot;
    std::vector<Ciphertext> hoisted;
};

MixOutputs
mixRequest(const MixState &s)
{
    MixOutputs out;
    out.add = s.evaluator.add(s.x, s.y);
    out.pmult = s.evaluator.mulPlain(s.x, s.plain);
    out.hmult = s.evaluator.rescale(s.evaluator.multiply(s.x, s.y, s.relin));
    out.rot = s.evaluator.rotate(s.x, kRotation, s.galois);
    out.hoisted = s.evaluator.rotateHoisted(s.x, kHoisted, s.galois);
    return out;
}

/** Decrypt every output against its plaintext reference; "" when all
 *  are within tolerance, else the first failing op. */
std::string
checkMix(const MixState &s, const MixOutputs &out)
{
    Slots sum = s.u, prod = s.u, plainProd = s.u;
    for (size_t i = 0; i < s.u.size(); ++i) {
        sum[i] += s.v[i];
        prod[i] *= s.v[i];
        plainProd[i] *= s.w[i];
    }
    if (maxError(s.decrypt(out.add), sum) > kLinearTol)
        return "HAdd output outside tolerance";
    if (maxError(s.decrypt(out.pmult), plainProd) > kLinearTol)
        return "PMult output outside tolerance";
    if (maxError(s.decrypt(out.hmult), prod) > kKeySwitchTol)
        return "HMult output outside tolerance";
    if (maxError(s.decrypt(out.rot), rotated(s.u, kRotation)) >
        kKeySwitchTol)
        return "HRot output outside tolerance";
    if (out.hoisted.size() != kHoisted.size())
        return "rotateHoisted returned the wrong count";
    for (size_t k = 0; k < kHoisted.size(); ++k) {
        if (maxError(s.decrypt(out.hoisted[k]), rotated(s.u, kHoisted[k])) >
            kKeySwitchTol)
            return "hoisted rotation outside tolerance";
    }
    return "";
}

uint64_t
digestOf(const MixOutputs &out)
{
    Digest digest;
    for (const Ciphertext *ct : {&out.add, &out.pmult, &out.hmult, &out.rot})
        addCiphertext(digest, *ct);
    for (const auto &ct : out.hoisted)
        addCiphertext(digest, ct);
    return digest.value();
}

/** Bootstrapping state: bootstrapParams(2^11), the bootstrap_demo and
 *  BootstrapTest parameters, with the level-1 input ciphertext. */
struct BootState {
    explicit BootState(uint64_t seed)
        : context(CkksParams::bootstrapParams(1 << 11)), encoder(context),
          keygen(context, subSeed(seed, kKeys)),
          encryptor(context, subSeed(seed, kEncrypt)),
          decryptor(context, keygen.secretKey()),
          evaluator(context, encoder),
          boot(context, encoder, evaluator, keygen)
    {
        // BootstrapTest's message amplitude: 1/32 in both parts.
        msg = randomSlots(subSeed(seed, kSlotsBoot), encoder.slots(),
                          1.0 / 32.0);
        input = encryptor.encrypt(encoder.encode(msg, 1),
                                  keygen.secretKey());
    }

    /** Largest slot error of a bootstrap output. */
    double
    error(const Ciphertext &out) const
    {
        return maxError(encoder.decode(decryptor.decrypt(out)), msg);
    }

    CkksContext context;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
    CkksDecryptor decryptor;
    CkksEvaluator evaluator;
    Bootstrapper boot;
    Slots msg;
    Ciphertext input;
};

/** One request per operation: the rate of each is 1 / its time. */
std::vector<double>
perSecond(const std::vector<double> &seconds)
{
    std::vector<double> rates;
    for (const double s : seconds)
        rates.push_back(1.0 / s);
    return rates;
}

/** -log2 of a slot error: bits of precision. */
double
precisionBits(double error)
{
    return error > 0.0 ? -std::log2(error) : 64.0;
}

} // namespace

void
runCkksMix(const Options &opts, Report &report)
{
    SetupTimer<MixState, uint64_t> setup(opts, opts.seed);
    std::vector<double> times;
    bool haveDigest = false;
    uint64_t firstDigest = 0;
    closedLoop(opts.seconds, 3, [&] {
        ++report.attempted;
        double t = 0.0;
        try {
            const MixState &state = setup.state();
            MixOutputs out;
            t = timeIt([&] { out = mixRequest(state); });
            const std::string bad = checkMix(state, out);
            const uint64_t digest = digestOf(out);
            if (!haveDigest) {
                firstDigest = digest;
                haveDigest = true;
            }
            if (!bad.empty())
                report.fail(bad);
            else if (digest != firstDigest)
                report.fail("op-mix digest differs between repetitions");
            else
                times.push_back(t);
        } catch (const AnaheimError &e) {
            report.fail(std::string("AnaheimError: ") + e.what());
        }
        setup.afterOperation(t);
    });
    setup.report(report);
    reportOps(report, times, perSecond(times));
    report.counts["ckks.mix_digest"] = digestValue(firstDigest);
}

void
runCkksBoot(const Options &opts, Report &report)
{
    SetupTimer<BootState, uint64_t> setup(opts, opts.seed);
    std::vector<double> times;
    bool haveDigest = false;
    uint64_t firstDigest = 0;
    double worstError = 0.0;
    closedLoop(opts.seconds, 2, [&] {
        ++report.attempted;
        double t = 0.0;
        try {
            const BootState &state = setup.state();
            Ciphertext out;
            t = timeIt([&] { out = state.boot.bootstrap(state.input); });
            const double error = state.error(out);
            Digest digest;
            addCiphertext(digest, out);
            if (!haveDigest) {
                firstDigest = digest.value();
                haveDigest = true;
            }
            worstError = std::max(worstError, error);
            if (!(error < kBootTol))
                report.fail("bootstrap error above 2^-10");
            else if (digest.value() != firstDigest)
                report.fail("bootstrap digest differs between repetitions");
            else
                times.push_back(t);
        } catch (const AnaheimError &e) {
            report.fail(std::string("AnaheimError: ") + e.what());
        }
        setup.afterOperation(t);
    });
    setup.report(report);
    reportOps(report, times, perSecond(times));
    report.counts["ckks.boot_digest"] = digestValue(firstDigest);
    report.counts["boot.precision_bits"] = precisionBits(worstError);
}

void
probeCkksLayers(const Options &opts, Report &report)
{
    OBS_SPAN("perfbench/probe/ckks");
    const size_t reps = opts.quick ? 5 : 40;
    const size_t bootReps = opts.quick ? 1 : 3;
    const auto mix = std::make_unique<MixState>(opts.seed);
    const auto boot = std::make_unique<BootState>(opts.seed);
    auto &layers = report.layers;

    // Probes run on the benchmark's one-thread pool, like the workloads;
    // common: the same call again at the default pool size.
    const size_t threads = parallelThreadCount();
    const size_t pool = defaultThreadCount();
    layers["common.pool_threads"] = static_cast<double>(pool);
    const auto hmult = [&] {
        OBS_SPAN("perfbench/ckks/hmult");
        keep(mix->evaluator.multiply(mix->x, mix->y, mix->relin));
    };
    const auto bootstrap = [&] {
        OBS_SPAN("perfbench/boot/bootstrap");
        keep(boot->boot.bootstrap(boot->input));
    };
    setParallelThreads(pool);
    const double hmultPool = medianTime(reps, hmult);
    const double bootPool = medianTime(bootReps, bootstrap);
    setParallelThreads(threads);
    const double hmultSerial = medianTime(reps, hmult);
    layers["common.pool_speedup_hmult"] = hmultSerial / hmultPool;
    layers["ckks.hmult_us"] = hmultSerial * 1e6;

    // boot: phase times from the library's own boot/* spans over these
    // bootstraps, plus the output precision.
    const char *phases[] = {"boot/modraise", "boot/coeff_to_slot",
                            "boot/eval_mod", "boot/slot_to_coeff",
                            "boot/bootstrap"};
    std::vector<SpanTotal> before;
    for (const char *phase : phases)
        before.push_back(spanTotal(phase));
    const double bootSerial = medianTime(bootReps, bootstrap);
    layers["common.pool_speedup_boot"] = bootSerial / bootPool;
    const double boots = static_cast<double>(
        spanTotal("boot/bootstrap").count - before[4].count);
    const auto phaseMs = [&](size_t i) {
        return boots > 0.0 ? (spanTotal(phases[i]).ms - before[i].ms) / boots
                           : 0.0;
    };
    layers["boot.modraise_ms"] = phaseMs(0);
    layers["boot.coeff_to_slot_ms"] = phaseMs(1);
    layers["boot.eval_mod_ms"] = phaseMs(2);
    layers["boot.slot_to_coeff_ms"] = phaseMs(3);
    layers["boot.precision_bits"] =
        precisionBits(boot->error(boot->boot.bootstrap(boot->input)));

    // math: one limb forward NTT at N = 2^12.
    {
        const NttTable &table = mix->context.qBasis().table(0);
        CoeffVector limb = mix->x.b.limb(0);
        constexpr size_t kBatch = 100;
        const double n = static_cast<double>(table.degree());
        const double perCall = medianTime(reps, [&] {
            OBS_SPAN("perfbench/math/ntt_forward");
            for (size_t i = 0; i < kBatch; ++i)
                table.forward(limb.data());
        }) / kBatch;
        layers["math.ntt_ns_per_bfly"] = perCall * 1e9 / (n / 2.0 * std::log2(n));
    }

    // poly: toEval / automorphism on an 8-limb polynomial.
    {
        Polynomial coeff = mix->x.b;
        coeff.toCoeff();
        std::vector<double> toEval;
        for (size_t i = 0; i < reps; ++i) {
            Polynomial p = coeff;
            toEval.push_back(timeIt([&] {
                OBS_SPAN("perfbench/poly/to_eval");
                p.toEval();
            }));
        }
        layers["poly.to_eval_us"] = median(toEval) * 1e6;
        const uint64_t k =
            KeyGenerator::rotationGaloisElt(kRotation, mix->context.degree());
        layers["poly.automorphism_us"] = medianTime(reps, [&] {
            OBS_SPAN("perfbench/poly/automorphism");
            keep(mix->x.b.automorphism(k));
        }) * 1e6;
    }

    // rns: ModUp's conversion of one digit at the bootstrap keyswitch
    // shape (alpha source primes -> the rest of Q_L || P).
    {
        const CkksContext &ctx = boot->context;
        const size_t alpha = ctx.alpha();
        const RnsBasis &q = ctx.qBasis();
        const RnsBasis source = q.slice(0, alpha);
        const RnsBasis target =
            q.slice(alpha, q.size() - alpha).concat(ctx.pBasis());
        const BasisConverter &conv = ctx.converter(source, target);
        Rng rng(subSeed(opts.seed, kSlotsBoot));
        std::vector<CoeffVector> input;
        for (size_t i = 0; i < alpha; ++i)
            input.push_back(sampleUniform(rng, ctx.degree(), q.prime(i)));
        layers["rns.bconv_us"] = medianTime(reps, [&] {
            OBS_SPAN("perfbench/rns/bconv");
            keep(conv.convert(input));
        }) * 1e6;
    }

    // ckks: the keyswitch phases, then each evaluator call of the mix.
    {
        const KeySwitcher &ks = mix->evaluator.keySwitcher();
        std::vector<Polynomial> digits;
        std::pair<Polynomial, Polynomial> acc;
        layers["ckks.modup_us"] = medianTime(reps, [&] {
            OBS_SPAN("perfbench/ckks/modup");
            digits = ks.modUp(mix->x.a);
        }) * 1e6;
        layers["ckks.keymult_us"] = medianTime(reps, [&] {
            OBS_SPAN("perfbench/ckks/keymult");
            acc = ks.keyMult(digits, mix->relin);
        }) * 1e6;
        layers["ckks.moddown_us"] = medianTime(reps, [&] {
            OBS_SPAN("perfbench/ckks/moddown");
            keep(ks.modDown(acc.first));
        }) * 1e6;

        const CkksEvaluator &ev = mix->evaluator;
        const auto hadd = [&] {
            OBS_SPAN("perfbench/ckks/hadd");
            keep(ev.add(mix->x, mix->y));
        };
        const Ciphertext product = ev.multiply(mix->x, mix->y, mix->relin);
        layers["ckks.hadd_us"] = medianTime(reps, hadd) * 1e6;
        layers["ckks.pmult_us"] = medianTime(reps, [&] {
            OBS_SPAN("perfbench/ckks/pmult");
            keep(ev.mulPlain(mix->x, mix->plain));
        }) * 1e6;
        layers["ckks.rescale_us"] = medianTime(reps, [&] {
            OBS_SPAN("perfbench/ckks/rescale");
            keep(ev.rescale(product));
        }) * 1e6;
        layers["ckks.hrot_us"] = medianTime(reps, [&] {
            OBS_SPAN("perfbench/ckks/hrot");
            keep(ev.rotate(mix->x, kRotation, mix->galois));
        }) * 1e6;
        layers["ckks.hoisted3_us"] = medianTime(reps, [&] {
            OBS_SPAN("perfbench/ckks/hoisted3");
            keep(ev.rotateHoisted(mix->x, kHoisted, mix->galois));
        }) * 1e6;

        // Allocations of one call, after a warm-up call.
        const auto allocsOf = [&](const auto &fn) {
            fn();
            setAllocCounting(true);
            const AllocTally start = allocTally();
            fn();
            const AllocTally end = allocTally();
            setAllocCounting(false);
            return AllocTally{end.calls - start.calls,
                              end.bytes - start.bytes};
        };
        const AllocTally perHadd = allocsOf(hadd);
        const AllocTally perHmult = allocsOf(hmult);
        layers["ckks.allocs_per_hadd"] = static_cast<double>(perHadd.calls);
        layers["ckks.allocs_per_hmult"] =
            static_cast<double>(perHmult.calls);
        layers["ckks.alloc_mb_per_hmult"] =
            static_cast<double>(perHmult.bytes) / (1024.0 * 1024.0);
    }

    // lintrans: one CoeffToSlot factor with BSGS hoisting.
    {
        const DftPlan plan(boot->encoder.slots(), BootstrapConfig{}.fftIter);
        const DiagMatrix matrix = plan.coeffToSlotFactors({1.0, 0.0}).front();
        const GaloisKeys keys =
            boot->keygen.makeGaloisKeys(LinearTransformer::requiredRotations(
                matrix, LinTransAlgorithm::BsgsHoisting));
        const LinearTransformer transformer(boot->context, boot->encoder,
                                            boot->evaluator);
        const Ciphertext ct = boot->encryptor.encrypt(
            boot->encoder.encode(boot->msg, boot->context.maxLevel()),
            boot->keygen.secretKey());
        layers["lintrans.bsgs_ms"] = medianTime(bootReps, [&] {
            OBS_SPAN("perfbench/lintrans/bsgs");
            keep(transformer.apply(ct, matrix, keys,
                                   LinTransAlgorithm::BsgsHoisting));
        }) * 1e3;
    }
}

} // namespace perfbench
