/**
 * Cross-module property tests: invariants the paper's argument rests on,
 * checked over parameter sweeps rather than single points.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "anaheim/framework.h"
#include "anaheim/workloads.h"
#include "support/error_matchers.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/rng.h"
#include "gpu/gpumodel.h"

namespace anaheim {
namespace {

using Complex = std::complex<double>;

// ---------------------------------------------------------------- CKKS

/** Homomorphic pipeline correctness across ring degrees and digit
 *  configurations. */
class CkksSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{
};

TEST_P(CkksSweepTest, MultiplyRotateRoundTrip)
{
    const auto [logN, alpha] = GetParam();
    const CkksContext context(
        CkksParams::testParams(size_t{1} << logN, 6, alpha));
    const CkksEncoder encoder(context);
    KeyGenerator keygen(context, logN * 100 + alpha);
    CkksEncryptor encryptor(context, 3);
    const CkksDecryptor decryptor(context, keygen.secretKey());
    const CkksEvaluator evaluator(context, encoder);

    Rng rng(logN);
    std::vector<Complex> u(encoder.slots()), v(encoder.slots());
    for (size_t i = 0; i < u.size(); ++i) {
        u[i] = {rng.uniformReal() - 0.5, rng.uniformReal() - 0.5};
        v[i] = {rng.uniformReal() - 0.5, 0.0};
    }
    const auto ctU = encryptor.encrypt(
        encoder.encode(u, context.maxLevel()), keygen.secretKey());
    const auto ctV = encryptor.encrypt(
        encoder.encode(v, context.maxLevel()), keygen.secretKey());

    const auto relin = keygen.makeRelinKey();
    auto keys = keygen.makeGaloisKeys({5});
    const auto result = evaluator.rotate(
        evaluator.rescale(evaluator.multiply(ctU, ctV, relin)), 5, keys);
    const auto out = encoder.decode(decryptor.decrypt(result));
    for (size_t i = 0; i < u.size(); i += 31) {
        const auto expect = u[(i + 5) % u.size()] * v[(i + 5) % u.size()];
        EXPECT_LT(std::abs(out[i] - expect), 1e-3)
            << "logN=" << logN << " alpha=" << alpha << " slot " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CkksSweepTest,
    ::testing::Values(std::tuple<size_t, size_t>{9, 1},
                      std::tuple<size_t, size_t>{9, 3},
                      std::tuple<size_t, size_t>{10, 2},
                      std::tuple<size_t, size_t>{11, 2},
                      std::tuple<size_t, size_t>{10, 6}));

TEST(CkksProperties, HomomorphismIsLinear)
{
    // decrypt(a*ct1 + ct2) == a*m1 + m2 for scalar a.
    const CkksContext context(CkksParams::testParams(1 << 9, 5, 2));
    const CkksEncoder encoder(context);
    KeyGenerator keygen(context, 7);
    CkksEncryptor encryptor(context, 9);
    const CkksDecryptor decryptor(context, keygen.secretKey());
    const CkksEvaluator evaluator(context, encoder);

    Rng rng(1);
    std::vector<Complex> m1(encoder.slots()), m2(encoder.slots());
    for (size_t i = 0; i < m1.size(); ++i) {
        m1[i] = {rng.uniformReal() - 0.5, 0.0};
        m2[i] = {rng.uniformReal() - 0.5, 0.0};
    }
    const auto ct1 = encryptor.encrypt(
        encoder.encode(m1, context.maxLevel()), keygen.secretKey());
    const auto ct2 = encryptor.encrypt(
        encoder.encode(m2, context.maxLevel()), keygen.secretKey());
    const auto combo =
        evaluator.add(evaluator.mulInteger(ct1, 3), ct2);
    const auto out = encoder.decode(decryptor.decrypt(combo));
    for (size_t i = 0; i < m1.size(); i += 17)
        EXPECT_LT(std::abs(out[i] - (3.0 * m1[i] + m2[i])), 1e-4);
}

// --------------------------------------------------------------- trace

TEST(TraceProperties, ElementWiseIntensityStaysMemoryBound)
{
    // §IV-D: element-wise kernels have < 2 int-ops per byte; the fused
    // accumulations (PAccum/CAccum reusing buffered operands) raise
    // this slightly but stay far below the 10-40 ops/byte GPUs want.
    for (const auto &[info, seq] : makeAllWorkloads()) {
        for (const auto &op : seq.ops) {
            if (kernelClass(op.type) != KernelClass::ElementWise)
                continue;
            const double bytes = op.readBytes() + op.writeBytes();
            ASSERT_GT(bytes, 0.0) << info.name;
            const bool fusedAccum = op.type == KernelType::EwPAccum ||
                                    op.type == KernelType::EwCAccum;
            EXPECT_LT(op.intOps() / bytes, fusedAccum ? 4.0 : 2.0)
                << info.name << " op " << kernelTypeName(op.type);
        }
    }
}

TEST(TraceProperties, EveryPimEligibleOpIsElementWise)
{
    for (const auto &[info, seq] : makeAllWorkloads()) {
        (void)info;
        for (const auto &op : seq.ops) {
            if (op.pimEligible) {
                EXPECT_EQ(kernelClass(op.type), KernelClass::ElementWise);
            }
            EXPECT_GT(op.limbs, 0u);
            EXPECT_GT(op.n, 0u);
        }
    }
}

// ----------------------------------------------------------------- gpu

TEST(GpuProperties, RooflineMonotonicInBandwidth)
{
    const auto hadd = buildHAdd(TraceParams{});
    GpuConfig fast = GpuConfig::a100_80gb();
    fast.dramBwGBs *= 2.0;
    const GpuModel slowModel(GpuConfig::a100_80gb(),
                             LibraryProfile::cheddar());
    const GpuModel fastModel(fast, LibraryProfile::cheddar());
    EXPECT_LT(fastModel.run(hadd.ops[0]).timeNs,
              slowModel.run(hadd.ops[0]).timeNs);
}

TEST(GpuProperties, RooflineMonotonicInCompute)
{
    KernelOp ntt;
    ntt.type = KernelType::Ntt;
    ntt.n = 1 << 16;
    ntt.limbs = 54;
    ntt.reads = {{OperandKind::Working, 54}};
    ntt.writes = {{OperandKind::Working, 54}};
    GpuConfig strong = GpuConfig::a100_80gb();
    strong.intTops *= 2.0;
    const GpuModel weakModel(GpuConfig::a100_80gb(),
                             LibraryProfile::cheddar());
    const GpuModel strongModel(strong, LibraryProfile::cheddar());
    EXPECT_LT(strongModel.run(ntt).timeNs, weakModel.run(ntt).timeNs);
}

// ----------------------------------------------------------- framework

TEST(FrameworkProperties, ExecutionIsDeterministic)
{
    const auto seq = buildHMult(TraceParams{});
    const AnaheimFramework framework(AnaheimConfig::a100NearBank());
    const auto r1 = framework.execute(seq);
    const auto r2 = framework.execute(seq);
    EXPECT_DOUBLE_EQ(r1.totalNs, r2.totalNs);
    EXPECT_DOUBLE_EQ(r1.energyPj, r2.energyPj);
    EXPECT_EQ(r1.timeline.size(), r2.timeline.size());
}

TEST(FrameworkProperties, SpeedupBoundedByAmdahl)
{
    // PIM cannot speed a workload beyond the element-wise share it
    // offloads.
    const auto boot = makeBootWorkload();
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.pimEnabled = false;
    const auto base = AnaheimFramework(config).execute(boot);
    config.pimEnabled = true;
    const auto pim = AnaheimFramework(config).execute(boot);

    const double ewShare =
        base.timeNsByCategory.at("ElementWise") / base.totalNs;
    const double amdahlLimit = 1.0 / (1.0 - ewShare);
    EXPECT_LT(base.totalNs / pim.totalNs, amdahlLimit);
}

TEST(FrameworkProperties, DisablingPimLeavesNoPimTime)
{
    AnaheimConfig config = AnaheimConfig::a100NearBank();
    config.pimEnabled = false;
    const auto result =
        AnaheimFramework(config).execute(makeBootWorkload());
    EXPECT_EQ(result.timeNsByCategory.count("PIM"), 0u);
    EXPECT_DOUBLE_EQ(result.pimInternalBytes, 0.0);
}

TEST(FrameworkProperties, WorkloadEnergyScalesWithTime)
{
    // Longer workloads cost more energy under the same configuration.
    const AnaheimFramework framework(AnaheimConfig::a100NearBank());
    const auto boot = framework.execute(makeBootWorkload());
    const auto sort = framework.execute(makeSortWorkload());
    EXPECT_GT(sort.totalNs, boot.totalNs);
    EXPECT_GT(sort.energyPj, boot.energyPj);
}

} // namespace
} // namespace anaheim
