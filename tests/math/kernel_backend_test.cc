/**
 * @file
 * Backend-equivalence matrix: every kernel backend compiled into this
 * binary must be bitwise identical to the division-based reference
 * oracle, across every context-grade prime size and every degree the
 * library accepts, in both transform directions.
 *
 * The matrix runs three ways in CI (see tests/CMakeLists.txt):
 *   - plain: runtime CPUID dispatch picks the widest backend;
 *   - ANAHEIM_NTT_BACKEND=scalar: env override pins the scalar lanes;
 *   - ANAHEIM_NTT_BACKEND=reference: the oracle itself is forced, so
 *     the "lazy" entry points must route through it and trivially
 *     agree.
 * The per-backend loops below additionally pin each compiled backend
 * programmatically via setBackend(), so one run of the plain binary
 * still covers scalar, AVX2, and AVX-512 wherever the host CPU allows.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "math/kernels.h"
#include "math/modarith.h"
#include "math/ntt.h"
#include "math/primes.h"

namespace anaheim {
namespace {

using kernels::Backend;

/** Context-grade prime sizes: smallest NTT-friendly, the 40-bit scale
 *  primes, the bootstrap's 48-bit ones, both sides of the IFMA
 *  backend's ranges (transforms below 2^49, products below 2^50), the
 *  52-bit first/special primes, and the largest the lazy kernels accept
 *  (59-bit boundary, q < kLazyModulusBound). A degree-n prime needs
 *  q ≡ 1 (mod 2n); 30-bit primes exist for every n tested. */
constexpr int kPrimeBits[] = {30, 40, 48, 49, 50, 52, 59};

/** The largest prime below 2^bits: the edge of each range a kernel
 *  bounds its moduli by. */
uint64_t
largestPrimeBelow(int bits)
{
    uint64_t q = (uint64_t{1} << bits) - 1;
    while (!isPrime(q))
        --q;
    return q;
}

class KernelBackendMatrix : public ::testing::Test
{
  protected:
    void TearDown() override { kernels::resetBackend(); }
};

/** Runnable backends compiled into this binary (CPUID-filtered). */
std::vector<const kernels::KernelOps *>
runnableBackends()
{
    std::vector<const kernels::KernelOps *> out;
    for (const kernels::KernelOps *ops : kernels::compiledBackends()) {
        if (kernels::cpuSupports(ops->backend))
            out.push_back(ops);
    }
    return out;
}

TEST_F(KernelBackendMatrix, TransformsBitwiseMatchReferenceEverywhere)
{
    for (size_t n = 4; n <= 4096; n *= 2) {
        for (const int bits : kPrimeBits) {
            const auto primes = generateNttPrimes(n, bits, 1);
            ASSERT_FALSE(primes.empty()) << "no " << bits
                                         << "-bit prime for n=" << n;
            const uint64_t q = primes[0];
            if (q >= NttTable::kLazyModulusBound)
                continue;
            const auto table = NttTable::shared(q, n);

            Rng rng(n * 1000 + static_cast<size_t>(bits));
            const CoeffVector input = sampleUniform(rng, n, q);

            // Oracle: division-based reference, both directions.
            CoeffVector refFwd = input;
            table->forwardReference(refFwd.data());
            CoeffVector refRound = refFwd;
            table->inverseReference(refRound.data());
            ASSERT_EQ(refRound, input)
                << "reference roundtrip broken at n=" << n;

            for (const kernels::KernelOps *ops : runnableBackends()) {
                ASSERT_TRUE(kernels::setBackend(ops->backend));
                CoeffVector fwd = input;
                table->forwardLazy(fwd.data());
                EXPECT_EQ(fwd, refFwd)
                    << ops->name << " forward diverges from reference "
                    << "at n=" << n << " q=" << q << " (" << bits
                    << "-bit)";
                CoeffVector inv = fwd;
                table->inverseLazy(inv.data());
                EXPECT_EQ(inv, input)
                    << ops->name << " inverse diverges from reference "
                    << "at n=" << n << " q=" << q << " (" << bits
                    << "-bit)";
            }
        }
    }
}

TEST_F(KernelBackendMatrix, DispatchedEntryPointsMatchReference)
{
    // Whatever dispatch resolves to right now — CPUID best, an env
    // override, or the forced oracle — forward()/inverse() must equal
    // the reference bit for bit. This is the body the env-variant ctest
    // entries (ANAHEIM_NTT_BACKEND=scalar and =reference)
    // exercise without any programmatic override.
    for (size_t n : {size_t{8}, size_t{256}, size_t{4096}}) {
        const uint64_t q = generateNttPrimes(n, 40, 1)[0];
        const auto table = NttTable::shared(q, n);
        Rng rng(n);
        const CoeffVector input = sampleUniform(rng, n, q);

        CoeffVector ref = input;
        table->forwardReference(ref.data());
        CoeffVector got = input;
        table->forward(got.data());
        EXPECT_EQ(got, ref) << "dispatched forward at n=" << n;

        table->inverseReference(ref.data());
        table->inverse(got.data());
        EXPECT_EQ(got, ref) << "dispatched inverse at n=" << n;
        EXPECT_EQ(got, input) << "dispatched roundtrip at n=" << n;
    }
}

/** Every element-wise entry point of every runnable backend equals the
 *  scalar backend at modulus q. */
void
expectElementWiseOpsMatchScalar(uint64_t q)
{
    const size_t n = 1031; // odd: exercises every vector tail path
    Rng rng(7);
    const CoeffVector a = sampleUniform(rng, n, q);
    const CoeffVector b = sampleUniform(rng, n, q);
    const uint64_t w = rng.uniform(q);
    const ShoupMul prepared(w, q);
    const Barrett br(q);
    // BConv accumulates residues of a source prime into a target one:
    // src may be wider than q (here up to the 59-bit edge), and a
    // backend whose lanes are narrower must take its bound from the
    // caller.
    const uint64_t wideQ = largestPrimeBelow(59);
    const CoeffVector wideSrc = sampleUniform(rng, n, wideQ);

    // Random gather permutation with negation bits for permuteNeg —
    // indices may repeat (the kernel contract is a plain gather), and
    // a sprinkle of zero sources exercises the -0 == 0 fold.
    std::vector<uint64_t> idx(n);
    CoeffVector srcWithZeros = a;
    for (size_t i = 0; i < n; ++i) {
        idx[i] = rng.uniform(n);
        if (rng.uniform(2) == 1)
            idx[i] |= kernels::kPermuteNegBit;
        if (rng.uniform(16) == 0)
            srcWithZeros[i] = 0;
    }

    const kernels::KernelOps &scalar = kernels::scalarOps();
    auto runAll = [&](const kernels::KernelOps &ops) {
        std::vector<CoeffVector> out;
        CoeffVector t(n);
        ops.mulShoup(t.data(), a.data(), n, prepared.operand(),
                     prepared.precon(), q);
        out.push_back(t);
        t = b;
        ops.mulShoupAcc(t.data(), a.data(), n, prepared.operand(),
                        prepared.precon(), q, q);
        out.push_back(t);
        t = b;
        ops.mulShoupAcc(t.data(), wideSrc.data(), n, prepared.operand(),
                        prepared.precon(), q, wideQ);
        out.push_back(t);
        ops.subMulShoup(t.data(), a.data(), b.data(), n,
                        prepared.operand(), prepared.precon(), q);
        out.push_back(t);
        ops.addMod(t.data(), a.data(), b.data(), n, q);
        out.push_back(t);
        ops.subMod(t.data(), a.data(), b.data(), n, q);
        out.push_back(t);
        ops.negMod(t.data(), a.data(), n, q);
        out.push_back(t);
        ops.mulBarrett(t.data(), a.data(), b.data(), n, br);
        out.push_back(t);
        t = b;
        ops.macBarrett(t.data(), a.data(), a.data(), n, br);
        out.push_back(t);
        ops.permuteNeg(t.data(), srcWithZeros.data(), idx.data(), n, q);
        out.push_back(t);
        return out;
    };

    const auto expect = runAll(scalar);
    for (const kernels::KernelOps *ops : runnableBackends()) {
        const auto got = runAll(*ops);
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], expect[i])
                << ops->name << " element-wise op " << i << ", q=" << q;
    }
}

TEST_F(KernelBackendMatrix, ElementWiseOpsMatchScalarBackend)
{
    // The element-wise kernel paths (Shoup/Barrett/add/sub/neg) must
    // agree across backends too — they share the approximate-quotient
    // trick with the transforms — at every prime size, so both sides of
    // each IFMA range run.
    for (const int bits : kPrimeBits) {
        SCOPED_TRACE(bits);
        expectElementWiseOpsMatchScalar(generateNttPrimes(2048, bits, 1)[0]);
    }
}

TEST_F(KernelBackendMatrix, DualInnerProductMatchesInt128Reference)
{
    // The KeyMult inner product reduces once per chunk of terms, on
    // lanes of 52 (IFMA), 64 + carry (AVX2/AVX-512F) or 128 bits
    // (scalar). Against Barrett::reduce of unsigned __int128 sums: 1..20
    // terms (past the 64-bit lanes' chunk of 15 at 59 bits and the IFMA
    // chunks of 7, 3 and 1 at 48, 49 and 50 bits), all-(q-1) and random
    // inputs, each prime the largest below its bit bound, and a length
    // with a tail.
    constexpr size_t kMaxTerms = 20;
    for (const int bits : {30, 40, 48, 49, 50, 52, 58, 59}) {
        const uint64_t q = largestPrimeBelow(bits);
        const Barrett br(q);
        for (const size_t n : {size_t{2048}, size_t{1031}}) {
            for (const bool extreme : {true, false}) {
                Rng rng(static_cast<uint64_t>(bits) * 7919 + n);
                auto sample = [&] {
                    return extreme ? CoeffVector(n, q - 1)
                                   : sampleUniform(rng, n, q);
                };
                std::vector<CoeffVector> a, b0, b1;
                std::vector<const uint64_t *> pa, pb0, pb1;
                for (size_t j = 0; j < kMaxTerms; ++j) {
                    a.push_back(sample());
                    b0.push_back(sample());
                    b1.push_back(sample());
                }
                for (size_t j = 0; j < kMaxTerms; ++j) {
                    pa.push_back(a[j].data());
                    pb0.push_back(b0[j].data());
                    pb1.push_back(b1[j].data());
                }
                const CoeffVector init0 = sample();
                const CoeffVector init1 = sample();
                for (size_t terms = 1; terms <= kMaxTerms; ++terms) {
                    CoeffVector want0(n), want1(n);
                    for (size_t i = 0; i < n; ++i) {
                        unsigned __int128 s0 = init0[i], s1 = init1[i];
                        for (size_t j = 0; j < terms; ++j) {
                            s0 += static_cast<unsigned __int128>(a[j][i]) *
                                  b0[j][i];
                            s1 += static_cast<unsigned __int128>(a[j][i]) *
                                  b1[j][i];
                        }
                        want0[i] = br.reduce(s0);
                        want1[i] = br.reduce(s1);
                    }
                    for (const kernels::KernelOps *ops : runnableBackends()) {
                        CoeffVector got0 = init0, got1 = init1;
                        ops->dualInnerProduct(got0.data(), got1.data(),
                                              pa.data(), pb0.data(),
                                              pb1.data(), terms, n, br);
                        EXPECT_EQ(got0, want0)
                            << ops->name << " acc0, q=" << q << " ("
                            << bits << "-bit) n=" << n << " terms="
                            << terms << (extreme ? " all q-1" : "");
                        EXPECT_EQ(got1, want1)
                            << ops->name << " acc1, q=" << q << " ("
                            << bits << "-bit) n=" << n << " terms="
                            << terms << (extreme ? " all q-1" : "");
                    }
                }
            }
        }
    }
}

TEST_F(KernelBackendMatrix, MatrixHoldsUnderConcurrentTransforms)
{
    // The TSan leg runs this at ANAHEIM_THREADS=4: shared tables, many
    // threads transforming distinct buffers; results must stay bitwise
    // equal to the serially-computed reference.
    setParallelThreads(4);
    const size_t n = 1024;
    const uint64_t q = generateNttPrimes(n, 50, 1)[0];
    const auto table = NttTable::shared(q, n);

    constexpr size_t kJobs = 32;
    std::vector<CoeffVector> inputs(kJobs), outputs(kJobs);
    std::vector<CoeffVector> expected(kJobs);
    for (size_t j = 0; j < kJobs; ++j) {
        Rng rng(j + 1);
        inputs[j] = sampleUniform(rng, n, q);
        expected[j] = inputs[j];
        table->forwardReference(expected[j].data());
        outputs[j] = inputs[j];
    }
    parallelFor(0, kJobs, [&](size_t j) {
        table->forwardLazy(outputs[j].data());
    });
    for (size_t j = 0; j < kJobs; ++j)
        EXPECT_EQ(outputs[j], expected[j]) << "job " << j;

    parallelFor(0, kJobs, [&](size_t j) {
        table->inverseLazy(outputs[j].data());
    });
    for (size_t j = 0; j < kJobs; ++j)
        EXPECT_EQ(outputs[j], inputs[j]) << "job " << j << " roundtrip";
    setParallelThreads(defaultThreadCount());
}

} // namespace
} // namespace anaheim
