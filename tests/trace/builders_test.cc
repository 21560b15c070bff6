#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "anaheim/workloads.h"
#include "trace/builders.h"
#include "trace/counting.h"

namespace anaheim {
namespace {

TEST(TraceParams, PaperDefaultsMatchTableIV)
{
    const TraceParams params;
    EXPECT_EQ(params.n, size_t{1} << 16);
    EXPECT_EQ(params.level, 54u);
    EXPECT_EQ(params.alpha, 14u);
    EXPECT_EQ(params.digits(), 4u);
    EXPECT_EQ(params.extended(), 68u);
}

TEST(TraceParams, DnumSweepKeepsLimbBudget)
{
    for (size_t d : {2u, 3u, 4u, 6u}) {
        const auto params = TraceParams::forDnum(d);
        EXPECT_EQ(params.digits(), d) << "D=" << d;
        // Total limbs stay near the security budget of 68.
        EXPECT_NEAR(static_cast<double>(params.level + params.alpha), 68.0,
                    1.0)
            << "D=" << d;
    }
}

TEST(TraceSizes, PolynomialAndEvkMatchPaperFigures)
{
    // §III-A: "a polynomial can be as large as 17MB and an evk 136MB".
    const TraceParams params;
    const double polyBytes = params.level * limbBytes(params.n);
    EXPECT_NEAR(polyBytes / 1e6, 14.2, 1.0); // L=54 of the 64-limb max
    EXPECT_NEAR(evkBytes(params) / 1e6, 142.6, 3.0);
}

TEST(TraceBuilders, HAddIsPureElementWise)
{
    const auto seq = buildHAdd(TraceParams{});
    ASSERT_EQ(seq.ops.size(), 1u);
    EXPECT_EQ(kernelClass(seq.ops[0].type), KernelClass::ElementWise);
    EXPECT_TRUE(seq.ops[0].pimEligible);
    // Arithmetic intensity below 2 ops/byte (§IV-D).
    EXPECT_LT(seq.totalIntOps() / seq.totalBytes(), 2.0);
}

TEST(TraceBuilders, KeySwitchContainsAllThreePhases)
{
    const auto seq = buildKeySwitch(TraceParams{}, TracePhase::KeyMult);
    EXPECT_GT(seq.countType(KernelType::Intt), 0u);
    EXPECT_GT(seq.countType(KernelType::Ntt), 0u);
    EXPECT_GT(seq.countType(KernelType::BConv), 0u);
    EXPECT_EQ(seq.countType(KernelType::EwPAccum), 1u);

    // The KeyMult PAccum must read a full evk (2*D polys over PQ).
    const TraceParams params;
    double evkRead = 0.0;
    for (const auto &op : seq.ops) {
        for (const auto &operand : op.reads) {
            if (operand.kind == OperandKind::Evk)
                evkRead += operand.limbs * limbBytes(op.n);
        }
    }
    EXPECT_NEAR(evkRead, evkBytes(params), 1.0);
}

TEST(TraceBuilders, HMultHasTensorAndRelin)
{
    const auto seq = buildHMult(TraceParams{});
    EXPECT_EQ(seq.countType(KernelType::EwTensor), 1u);
    EXPECT_GE(seq.countType(KernelType::EwAdd), 1u);
}

TEST(TraceBuilders, HRotAutomorphismBetweenKeyMultAndModDown)
{
    const auto seq = buildHRot(TraceParams{});
    int autIdx = -1, keyMultIdx = -1, modDownIdx = -1;
    for (size_t i = 0; i < seq.ops.size(); ++i) {
        if (seq.ops[i].type == KernelType::Automorphism)
            autIdx = static_cast<int>(i);
        if (seq.ops[i].type == KernelType::EwPAccum && keyMultIdx < 0)
            keyMultIdx = static_cast<int>(i);
        if (seq.ops[i].phase == TracePhase::ModDown && modDownIdx < 0)
            modDownIdx = static_cast<int>(i);
    }
    ASSERT_GE(autIdx, 0);
    EXPECT_GT(autIdx, keyMultIdx);
    EXPECT_LT(autIdx, modDownIdx);
}

TEST(TraceBuilders, HoistingSharesOneModUp)
{
    const size_t k = 8;
    const auto hoisted = buildLinearTransform(
        TraceParams{}, k, TraceLtAlgorithm::Hoisting);
    const auto base =
        buildLinearTransform(TraceParams{}, k, TraceLtAlgorithm::Base);
    // Hoisting performs ~1/K of Base's ModSwitch work: compare (I)NTT
    // limb counts (the Fig. 1 table's 2.47x reduction driver).
    EXPECT_LT(countNttLimbOps(hoisted), countNttLimbOps(base) / 2.0);
}

TEST(TraceBuilders, HoistingMovesElementWiseToExtendedModulus)
{
    // Hoisting's MAC accumulation runs at L+alpha limbs; Base's at L.
    const auto hoisted = buildLinearTransform(
        TraceParams{}, 8, TraceLtAlgorithm::Hoisting);
    size_t maxMacLimbs = 0;
    for (const auto &op : hoisted.ops) {
        if (op.phase == TracePhase::Mac)
            maxMacLimbs = std::max<size_t>(maxMacLimbs, op.limbs);
    }
    EXPECT_EQ(maxMacLimbs, TraceParams{}.extended());
}

TEST(TraceCounting, MinKsUsesOneEvkHoistingUsesK)
{
    // Fig. 1 table: MinKS needs ~4x fewer evks (one per transform),
    // hoisting one per BSGS baby/giant rotation.
    const TraceParams params;
    const auto hoist = analyzeLinearTransforms(
        params, 3, 8, TraceLtAlgorithm::Hoisting);
    const auto minKs =
        analyzeLinearTransforms(params, 3, 8, TraceLtAlgorithm::MinKS);
    EXPECT_NEAR(hoist.evkBytes / minKs.evkBytes, 6.0, 2.5)
        << "paper reports ~4x fewer evks for MinKS";
    // Hoisting needs far fewer NTT ops; MinKS does not reduce them.
    EXPECT_LT(hoist.nttOps, minKs.nttOps / 2.0);
    // Hoisting's plaintexts are larger (extended modulus).
    EXPECT_GT(hoist.plaintextBytes, minKs.plaintextBytes);
    // MinKS requires a cache big enough to actually reuse the evk.
    EXPECT_GT(minKs.cacheBytes, evkBytes(params));
}

TEST(TraceBuilders, BootstrapLevelsEffMatchesPaper)
{
    // Paper: L 2 -> 54 -> 24 with L_eff = 11 at the fftIter mix 3/4.
    EXPECT_NEAR(bootstrapLevelsEff(TraceParams{}, 3.5), 11.0, 1.0);
    // Increasing fftIter costs levels (Fig. 3's trade-off).
    EXPECT_GT(bootstrapLevelsEff(TraceParams{}, 3.0),
              bootstrapLevelsEff(TraceParams{}, 5.0));
}

TEST(TraceBuilders, BootstrapElementWiseShareGrowsWithHoisting)
{
    const auto hoisted =
        buildBootstrap(TraceParams{}, 3.5, TraceLtAlgorithm::Hoisting);
    const auto minKs =
        buildBootstrap(TraceParams{}, 3.5, TraceLtAlgorithm::MinKS);

    auto elementWiseOps = [](const OpSequence &seq) {
        double ew = 0, total = 0;
        for (const auto &op : seq.ops) {
            const double bytes = op.readBytes() + op.writeBytes();
            total += bytes;
            if (kernelClass(op.type) == KernelClass::ElementWise)
                ew += bytes;
        }
        return ew / total;
    };
    // Hoisting raises the element-wise share (§IV-B).
    EXPECT_GT(elementWiseOps(hoisted), elementWiseOps(minKs));
}

TEST(TraceBuilders, AutFuseRemovesAutomorphismRoundTrips)
{
    TraceOptions with;
    TraceOptions without;
    without.autFuse = false;
    const auto fused = buildLinearTransform(
        TraceParams{}, 8, TraceLtAlgorithm::Hoisting, with);
    const auto plain = buildLinearTransform(
        TraceParams{}, 8, TraceLtAlgorithm::Hoisting, without);
    EXPECT_LT(fused.totalBytes(), plain.totalBytes());
    EXPECT_LT(fused.countType(KernelType::Automorphism),
              plain.countType(KernelType::Automorphism));
}

/** Element-wise ops reading an intermediate that their element-wise
 *  predecessor in the same phase wrote: the chains BasicFuse folds
 *  into one kernel. */
size_t
elementWiseChains(const OpSequence &seq)
{
    size_t chains = 0;
    for (size_t i = 1; i < seq.ops.size(); ++i) {
        const KernelOp &op = seq.ops[i];
        const KernelOp &prev = seq.ops[i - 1];
        bool readsIntermediate = false;
        for (const Operand &operand : op.reads)
            readsIntermediate |= operand.kind == OperandKind::Intermediate;
        chains += readsIntermediate && op.phase == prev.phase &&
                  kernelClass(op.type) == KernelClass::ElementWise &&
                  kernelClass(prev.type) == KernelClass::ElementWise;
    }
    return chains;
}

TEST(TraceBuilders, BasicFuseLeavesNoElementWiseChain)
{
    // RunContext::fusesWithPrev never fuses two element-wise GPU ops:
    // with BasicFuse on, the builders leave no such chain to fuse.
    for (const auto &[info, seq] : makeAllWorkloads())
        EXPECT_EQ(elementWiseChains(seq), 0u) << info.name;
    const TraceParams params;
    for (const auto algorithm :
         {TraceLtAlgorithm::Base, TraceLtAlgorithm::Hoisting,
          TraceLtAlgorithm::MinKS}) {
        const int algo = static_cast<int>(algorithm);
        for (const bool autFuse : {false, true}) {
            TraceOptions fused;
            fused.autFuse = autFuse;
            TraceOptions unfused = fused;
            unfused.basicFuse = false;
            for (const double fftIter : {3.0, 3.5, 4.0, 5.0, 6.0}) {
                EXPECT_EQ(elementWiseChains(buildBootstrap(
                              params, fftIter, algorithm, fused)),
                          0u)
                    << "boot " << fftIter << " algorithm " << algo
                    << " autFuse " << autFuse;
                // Without BasicFuse the chains are there to be found.
                EXPECT_GT(elementWiseChains(buildBootstrap(
                              params, fftIter, algorithm, unfused)),
                          0u)
                    << "unfused boot " << fftIter << " algorithm "
                    << algo << " autFuse " << autFuse;
            }
            for (const size_t k : {8u, 9u, 16u}) {
                EXPECT_EQ(elementWiseChains(buildLinearTransform(
                              params, k, algorithm, fused)),
                          0u)
                    << "lt " << k << " algorithm " << algo
                    << " autFuse " << autFuse;
            }
        }
    }
    for (const size_t dnum : {2u, 3u, 4u, 6u}) {
        const TraceParams p = TraceParams::forDnum(dnum);
        EXPECT_EQ(elementWiseChains(buildHMult(p)), 0u) << dnum;
        EXPECT_EQ(elementWiseChains(buildHRot(p)), 0u) << dnum;
    }
}

class DnumSweepTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(DnumSweepTest, EvkSizeGrowsWithDnum)
{
    const auto params = TraceParams::forDnum(GetParam());
    // evk = 2*D*(L+alpha) limbs: more digits, more key material.
    if (GetParam() > 2) {
        const auto smaller = TraceParams::forDnum(GetParam() - 1);
        EXPECT_GT(evkBytes(params), evkBytes(smaller) * 0.99);
    }
    const auto boot =
        buildBootstrap(params, 3.5, TraceLtAlgorithm::Hoisting);
    EXPECT_GT(boot.ops.size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Dnums, DnumSweepTest,
                         ::testing::Values<size_t>(2, 3, 4, 6));

// ---------------------------------------------------------------------
// Pinned trace digests: the differential oracle for any change to the
// trace record or the builders. Each digest covers every field of
// every op, so a refactor that keeps them keeps every simulated output
// built on these traces.

/** FNV-1a over the bytes of each 64-bit word and of each text. */
class Fnv1a
{
  public:
    void
    add(uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte)
            mix(static_cast<unsigned char>(word >> (8 * byte)));
    }

    void
    add(const std::string &text)
    {
        for (const char c : text)
            mix(static_cast<unsigned char>(c));
        mix(0);
    }

    uint64_t value() const { return hash_; }

  private:
    void
    mix(unsigned char byte)
    {
        hash_ = (hash_ ^ byte) * 1099511628211ULL;
    }

    uint64_t hash_ = 14695981039346656037ULL;
};

/** Every field of every op, with the phase as its text, so the digests
 *  hold whatever type the record stores the phase in. */
uint64_t
traceDigest(const OpSequence &seq)
{
    Fnv1a hash;
    hash.add(seq.name);
    hash.add(static_cast<uint64_t>(seq.n));
    hash.add(static_cast<uint64_t>(seq.ops.size()));
    for (const KernelOp &op : seq.ops) {
        hash.add(static_cast<uint64_t>(op.type));
        hash.add(tracePhaseName(op.phase));
        hash.add(static_cast<uint64_t>(op.n));
        hash.add(static_cast<uint64_t>(op.limbs));
        hash.add(static_cast<uint64_t>(op.fanIn));
        hash.add(static_cast<uint64_t>(op.pimEligible));
        hash.add(static_cast<uint64_t>(op.reads.size()));
        for (const Operand &operand : op.reads) {
            hash.add(static_cast<uint64_t>(operand.kind));
            hash.add(static_cast<uint64_t>(operand.limbs));
        }
        hash.add(static_cast<uint64_t>(op.writes.size()));
        for (const Operand &operand : op.writes) {
            hash.add(static_cast<uint64_t>(operand.kind));
            hash.add(static_cast<uint64_t>(operand.limbs));
        }
    }
    return hash.value();
}

/** fftIter as the labels print it: one decimal. */
std::string
fftLabel(double fftIter)
{
    char text[16];
    std::snprintf(text, sizeof(text), "%.1f", fftIter);
    return text;
}

/** The pinned sequences, each under a label naming its builder call. */
std::vector<std::pair<std::string, OpSequence>>
pinnedSequences()
{
    std::vector<std::pair<std::string, OpSequence>> seqs;
    for (auto &[info, seq] : makeAllWorkloads())
        seqs.emplace_back(std::string("workload/") + info.name,
                          std::move(seq));
    const struct {
        const char *name;
        TraceLtAlgorithm algorithm;
    } algorithms[] = {{"Base", TraceLtAlgorithm::Base},
                      {"Hoisting", TraceLtAlgorithm::Hoisting},
                      {"MinKS", TraceLtAlgorithm::MinKS}};
    const TraceParams params;
    for (const double fftIter : {3.0, 3.5, 4.0, 5.0, 6.0}) {
        for (const auto &algo : algorithms) {
            seqs.emplace_back("boot/" + fftLabel(fftIter) + "/" +
                                  algo.name,
                              buildBootstrap(params, fftIter,
                                             algo.algorithm));
        }
    }
    for (const bool basicFuse : {false, true}) {
        for (const bool autFuse : {false, true}) {
            TraceOptions options;
            options.basicFuse = basicFuse;
            options.autFuse = autFuse;
            seqs.emplace_back("boot/3.5/Hoisting/basic" +
                                  std::to_string(basicFuse) + "/aut" +
                                  std::to_string(autFuse),
                              buildBootstrap(params, 3.5,
                                             TraceLtAlgorithm::Hoisting,
                                             options));
        }
    }
    for (const size_t k : {8u, 9u, 16u}) {
        for (const auto &algo : algorithms) {
            for (const bool basicFuse : {false, true}) {
                TraceOptions options;
                options.basicFuse = basicFuse;
                seqs.emplace_back("lt/" + std::to_string(k) + "/" +
                                      algo.name + "/basic" +
                                      std::to_string(basicFuse),
                                  buildLinearTransform(params, k,
                                                       algo.algorithm,
                                                       options));
            }
        }
    }
    const std::pair<std::string, TraceParams> paramSets[] = {
        {"default", TraceParams{}},
        {"dnum2", TraceParams::forDnum(2)},
        {"dnum3", TraceParams::forDnum(3)},
        {"dnum4", TraceParams::forDnum(4)},
        {"dnum6", TraceParams::forDnum(6)},
    };
    for (const auto &[label, p] : paramSets) {
        seqs.emplace_back("HAdd/" + label, buildHAdd(p));
        seqs.emplace_back("PMult/" + label, buildPMult(p));
        seqs.emplace_back("HMult/" + label, buildHMult(p));
        seqs.emplace_back("HRot/" + label, buildHRot(p));
        seqs.emplace_back("Rescale/" + label, buildRescale(p));
    }
    return seqs;
}

TEST(TraceDigest, BuildersMatchPinnedDigests)
{
    const std::map<std::string, uint64_t> pinned = {
        {"workload/Boot", 0x85eb8be4716128f7ULL},
        {"workload/HELR", 0xca1369e0e05f22fbULL},
        {"workload/Sort", 0x924c1f25371afd6fULL},
        {"workload/RNN", 0x73118eda2918d67dULL},
        {"workload/ResNet20", 0xf9219a6990e9e065ULL},
        {"workload/ResNet18-AESPA", 0x10a8c9a7d1c61069ULL},
        {"boot/3.0/Base", 0xe966f6c153d61bbdULL},
        {"boot/3.0/Hoisting", 0xc394afc686893185ULL},
        {"boot/3.0/MinKS", 0xe966f6c153d61bbdULL},
        {"boot/3.5/Base", 0x6f263b31e547e9e5ULL},
        {"boot/3.5/Hoisting", 0xbc3903589f91ac03ULL},
        {"boot/3.5/MinKS", 0x6f263b31e547e9e5ULL},
        {"boot/4.0/Base", 0xa98e2ba8462fe496ULL},
        {"boot/4.0/Hoisting", 0x99da1850a6b5d410ULL},
        {"boot/4.0/MinKS", 0xa98e2ba8462fe496ULL},
        {"boot/5.0/Base", 0x857c4f01130c29aeULL},
        {"boot/5.0/Hoisting", 0xea906990d689c4a8ULL},
        {"boot/5.0/MinKS", 0x857c4f01130c29aeULL},
        {"boot/6.0/Base", 0x789dd4087cabeab2ULL},
        {"boot/6.0/Hoisting", 0x8c4552a3ca265a46ULL},
        {"boot/6.0/MinKS", 0x789dd4087cabeab2ULL},
        {"boot/3.5/Hoisting/basic0/aut0", 0xe53877fbb165a083ULL},
        {"boot/3.5/Hoisting/basic0/aut1", 0x38f689f052435e63ULL},
        {"boot/3.5/Hoisting/basic1/aut0", 0xfcaa484fc37b1e29ULL},
        {"boot/3.5/Hoisting/basic1/aut1", 0xbc3903589f91ac03ULL},
        {"lt/8/Base/basic0", 0xf6dbf395a95c45e5ULL},
        {"lt/8/Base/basic1", 0x6a3112cda4c27735ULL},
        {"lt/8/Hoisting/basic0", 0x122932540c305986ULL},
        {"lt/8/Hoisting/basic1", 0xbd06c726ae697055ULL},
        {"lt/8/MinKS/basic0", 0xf6dbf395a95c45e5ULL},
        {"lt/8/MinKS/basic1", 0x6a3112cda4c27735ULL},
        {"lt/9/Base/basic0", 0xaeb5d621c9432e3aULL},
        {"lt/9/Base/basic1", 0x36e0055337165f29ULL},
        {"lt/9/Hoisting/basic0", 0x1baa1a41b978f335ULL},
        {"lt/9/Hoisting/basic1", 0xc1e99f2bf50e6027ULL},
        {"lt/9/MinKS/basic0", 0xaeb5d621c9432e3aULL},
        {"lt/9/MinKS/basic1", 0x36e0055337165f29ULL},
        {"lt/16/Base/basic0", 0xa9b13b1aee2b1a72ULL},
        {"lt/16/Base/basic1", 0x23bcee1f3358f427ULL},
        {"lt/16/Hoisting/basic0", 0xc24253e6b1d7f4d4ULL},
        {"lt/16/Hoisting/basic1", 0x98607442157f1558ULL},
        {"lt/16/MinKS/basic0", 0xa9b13b1aee2b1a72ULL},
        {"lt/16/MinKS/basic1", 0x23bcee1f3358f427ULL},
        {"HAdd/default", 0x39c2102f18d3f65dULL},
        {"PMult/default", 0xc9972e4875c9cee8ULL},
        {"HMult/default", 0x25392f130354fab4ULL},
        {"HRot/default", 0xed1ef4c5db84925aULL},
        {"Rescale/default", 0xee45397f7c242b11ULL},
        {"HAdd/dnum2", 0x1ab1033c896a20f1ULL},
        {"PMult/dnum2", 0x65cbdb3c18710d48ULL},
        {"HMult/dnum2", 0x50aead65147d5856ULL},
        {"HRot/dnum2", 0x386af383026d0990ULL},
        {"Rescale/dnum2", 0x9a10a6598680f6adULL},
        {"HAdd/dnum3", 0x2290483f7fc47ec9ULL},
        {"PMult/dnum3", 0xf2ea26fbd8cd07c8ULL},
        {"HMult/dnum3", 0x3bb5dff8af4fb5b3ULL},
        {"HRot/dnum3", 0x7a6e1c8463ce9cd9ULL},
        {"Rescale/dnum3", 0x302182a27c9d6e35ULL},
        {"HAdd/dnum4", 0x39c2102f18d3f65dULL},
        {"PMult/dnum4", 0xc9972e4875c9cee8ULL},
        {"HMult/dnum4", 0x25392f130354fab4ULL},
        {"HRot/dnum4", 0xed1ef4c5db84925aULL},
        {"Rescale/dnum4", 0xee45397f7c242b11ULL},
        {"HAdd/dnum6", 0x57702eaf914be42dULL},
        {"PMult/dnum6", 0x1db9c4d64c8f6568ULL},
        {"HMult/dnum6", 0x292c8f859da4cddfULL},
        {"HRot/dnum6", 0xa91a10108c173687ULL},
        {"Rescale/dnum6", 0xb102c9665f564aa9ULL},
    };
    const auto seqs = pinnedSequences();
    ASSERT_EQ(seqs.size(), pinned.size());
    for (const auto &[label, seq] : seqs) {
        const auto it = pinned.find(label);
        ASSERT_NE(it, pinned.end()) << label;
        char actual[32];
        std::snprintf(actual, sizeof(actual), "0x%016llx",
                      static_cast<unsigned long long>(traceDigest(seq)));
        EXPECT_EQ(traceDigest(seq), it->second)
            << label << " now digests to " << actual;
    }
}

} // namespace
} // namespace anaheim
