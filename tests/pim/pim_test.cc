#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "math/modarith.h"
#include "math/primes.h"
#include "obs/metrics.h"
#include "pim/functional.h"
#include "pim/kernelmodel.h"
#include "support/error_matchers.h"

namespace anaheim {
namespace {

TEST(PimIsa, ProfilesMatchAlgorithmOne)
{
    // PAccum<4>: G = floor(B/6) (Alg. 1 line 1).
    const auto profile = pimInstrProfile(PimOpcode::PAccum, 4);
    EXPECT_EQ(profile.bufferRegions, 6u);
    EXPECT_EQ(profile.readsGroup0, 4u);  // p_0..p_3
    EXPECT_EQ(profile.readsGroup1, 8u);  // a_k, b_k
    EXPECT_EQ(profile.writes, 2u);       // x, y
}

TEST(PimIsa, SmallBuffersRejectCompoundInstructions)
{
    // Fig. 9: some compound instructions are unsupported at small B.
    EXPECT_FALSE(pimInstrSupported(PimOpcode::PAccum, 4, 4));
    EXPECT_TRUE(pimInstrSupported(PimOpcode::PAccum, 4, 16));
    EXPECT_FALSE(pimInstrSupported(PimOpcode::Tensor, 1, 4));
    EXPECT_TRUE(pimInstrSupported(PimOpcode::Add, 1, 4));
}

TEST(PimLayout, PaperExampleSixteenChunksPerBank)
{
    // §VI-B example: N = 2^16 limb over a 512-bank die group -> 16
    // chunks (128 elements) per bank per limb.
    const DramConfig dram = DramConfig::hbm2A100();
    const PimConfig pim = PimConfig::nearBankA100();
    EXPECT_EQ(pim.chunksPerBank(dram, 1 << 16), 16u);
    // 32 chunks per row over 8 column groups leaves 4 per group, so the
    // 16 chunks of a limb take a row group of 4 rows.
    EXPECT_EQ(dram.chunksPerRow() / PimConfig::kColumnGroups, 4u);
    EXPECT_EQ(pim.rowsPerRowGroup(dram, 1 << 16), 4u);
}

TEST(PimLayout, OfflineBanksStripeOverTheHealthySubset)
{
    // Quarantining two of the 512 banks leaves 8192 chunks over 510
    // healthy banks: ceil -> 17 chunks per bank (vs 16).
    const DramConfig dram = DramConfig::hbm2A100();
    PimConfig pim = PimConfig::nearBankA100();
    pim.offlineBanks = {17, 3}; // unsorted
    EXPECT_EQ(pim.healthyBanksPerDieGroup(), 510u);
    EXPECT_EQ(pim.chunksPerBank(dram, 1 << 16), 17u);
    // The healthy device keeps the exact quotient.
    EXPECT_EQ(PimConfig::nearBankA100().chunksPerBank(dram, 1 << 16), 16u);
}

TEST(PimLayout, RejectsImpossibleQuarantineSets)
{
    // PimConfig::validate runs when a model is built (the planner's
    // copy: planner_test.cc).
    const DramConfig dram = DramConfig::hbm2A100();
    const auto offline = [](std::vector<size_t> banks) {
        PimConfig pim = PimConfig::nearBankA100();
        pim.offlineBanks = std::move(banks);
        return pim;
    };
    EXPECT_ANAHEIM_ERROR(PimKernelModel(dram, offline({512})),
                         InvalidArgument, "offline bank 512 outside");
    // A bank listed twice would count twice against the healthy banks.
    EXPECT_ANAHEIM_ERROR(PimKernelModel(dram, offline({17, 3, 17})),
                         InvalidArgument, "offline bank 17 listed twice");
    std::vector<size_t> all(512);
    for (size_t b = 0; b < all.size(); ++b)
        all[b] = b;
    EXPECT_ANAHEIM_ERROR(PimKernelModel(dram, offline(all)),
                         ResourceExhausted, "quarantined");
}

class PimFunctionalTest : public ::testing::Test
{
  protected:
    PimFunctionalTest()
        : q_(generateNttPrimes(1024, 28, 1)[0]), unit_(q_), rng_(55)
    {
    }

    PimVector
    randomVec(size_t count = 64)
    {
        PimVector v(count);
        for (auto &x : v)
            x = static_cast<uint32_t>(rng_.uniform(q_));
        return v;
    }

    uint64_t q_;
    PimFunctionalUnit unit_;
    Rng rng_;
};

TEST_F(PimFunctionalTest, AddSubNegMatchReference)
{
    const auto a = randomVec();
    const auto b = randomVec();
    const auto sum = unit_.add(a, b);
    const auto diff = unit_.sub(a, b);
    const auto neg = unit_.neg(a);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(sum[i], addMod(a[i], b[i], q_));
        EXPECT_EQ(diff[i], subMod(a[i], b[i], q_));
        EXPECT_EQ(neg[i], negMod(a[i], q_));
    }
}

TEST_F(PimFunctionalTest, MontgomeryMultMatchesGenericModMul)
{
    const auto a = randomVec();
    const auto b = randomVec();
    const auto prod = unit_.mult(a, b);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(prod[i], mulMod(a[i], b[i], q_));
}

TEST_F(PimFunctionalTest, MacAndCMacMatchReference)
{
    const auto a = randomVec();
    const auto b = randomVec();
    const auto c = randomVec();
    const uint32_t constant = static_cast<uint32_t>(rng_.uniform(q_));
    const auto mac = unit_.mac(a, b, c);
    const auto cmac = unit_.cMac(a, b, constant);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(mac[i], macMod(a[i], b[i], c[i], q_));
        EXPECT_EQ(cmac[i], macMod(a[i], constant, b[i], q_));
    }
}

TEST_F(PimFunctionalTest, TensorMatchesCiphertextTensorAlgebra)
{
    const auto a = randomVec();
    const auto b = randomVec();
    const auto c = randomVec();
    const auto d = randomVec();
    const auto [x, y, z] = unit_.tensor(a, b, c, d);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(x[i], mulMod(a[i], c[i], q_));
        EXPECT_EQ(y[i], addMod(mulMod(a[i], d[i], q_),
                               mulMod(b[i], c[i], q_), q_));
        EXPECT_EQ(z[i], mulMod(b[i], d[i], q_));
    }
}

TEST_F(PimFunctionalTest, ModDownEpMatchesDefinition)
{
    const auto a = randomVec();
    const auto b = randomVec();
    const uint32_t constant = static_cast<uint32_t>(rng_.uniform(q_));
    const auto out = unit_.modDownEp(a, b, constant);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(out[i],
                  mulMod(constant, subMod(a[i], b[i], q_), q_));
}

TEST_F(PimFunctionalTest, PAccumMatchesKeyMultSemantics)
{
    // KeyMult: x = sum a_k * p_k, y = sum b_k * p_k over D = 4 digits.
    std::vector<PimVector> a, b, p;
    for (int k = 0; k < 4; ++k) {
        a.push_back(randomVec());
        b.push_back(randomVec());
        p.push_back(randomVec());
    }
    const auto [x, y] = unit_.pAccum(a, b, p);
    for (size_t i = 0; i < x.size(); ++i) {
        uint64_t ex = 0, ey = 0;
        for (int k = 0; k < 4; ++k) {
            ex = addMod(ex, mulMod(a[k][i], p[k][i], q_), q_);
            ey = addMod(ey, mulMod(b[k][i], p[k][i], q_), q_);
        }
        EXPECT_EQ(x[i], ex);
        EXPECT_EQ(y[i], ey);
    }
}

TEST_F(PimFunctionalTest, ThirtyTwoBitWordsTruncatedToTwentyEight)
{
    // DRAM stores 32-bit words; the unit truncates to 28 bits (§VI-A).
    PimVector a = {0xF0000001u}; // garbage in the top nibble
    PimVector b = {2u};
    const auto prod = unit_.mult(a, b);
    const uint64_t truncated = (0xF0000001u & 0x0fffffffu) % q_;
    EXPECT_EQ(prod[0], mulMod(truncated, 2u, q_));
}

class PimModelTest : public ::testing::Test
{
  protected:
    PimModelTest()
        : model_(DramConfig::hbm2A100(), PimConfig::nearBankA100())
    {
    }
    PimKernelModel model_;
};

TEST_F(PimModelTest, PimBeatsExternalBaseline)
{
    // Fig. 9: 1.65-10.3x speedups at the default configurations.
    for (PimOpcode op : {PimOpcode::Add, PimOpcode::Mult, PimOpcode::Mac,
                         PimOpcode::PMult, PimOpcode::Tensor}) {
        const auto pim = model_.execute(op, 1, 54, 1 << 16);
        const auto base = model_.baseline(op, 1, 54, 1 << 16);
        ASSERT_TRUE(pim.supported);
        EXPECT_GT(base.timeNs / pim.timeNs, 1.3)
            << pimOpcodeName(op) << " speedup too low";
        EXPECT_LT(base.timeNs / pim.timeNs, 40.0)
            << pimOpcodeName(op) << " speedup implausibly high";
        EXPECT_GT(base.energyPj / pim.energyPj, 1.5)
            << pimOpcodeName(op) << " energy gain too low";
    }
}

TEST_F(PimModelTest, CompoundInstructionsGainMost)
{
    // PAccum's fused execution amortizes ACT/PRE best (§VII-C).
    const auto addPim = model_.execute(PimOpcode::Add, 1, 54, 1 << 16);
    const auto addBase = model_.baseline(PimOpcode::Add, 1, 54, 1 << 16);
    const auto pacPim = model_.execute(PimOpcode::PAccum, 4, 68, 1 << 16);
    const auto pacBase =
        model_.baseline(PimOpcode::PAccum, 4, 68, 1 << 16);
    EXPECT_GT(pacBase.timeNs / pacPim.timeNs,
              addBase.timeNs / addPim.timeNs);
}

TEST_F(PimModelTest, LargerBufferAmortizesActPre)
{
    PimConfig small = PimConfig::nearBankA100();
    small.bufferEntries = 8;
    PimConfig large = PimConfig::nearBankA100();
    large.bufferEntries = 64;
    const PimKernelModel smallModel(DramConfig::hbm2A100(), small);
    const PimKernelModel largeModel(DramConfig::hbm2A100(), large);
    const auto slow = smallModel.execute(PimOpcode::PAccum, 4, 68,
                                         1 << 16);
    const auto fast = largeModel.execute(PimOpcode::PAccum, 4, 68,
                                         1 << 16);
    EXPECT_LT(fast.timeNs, slow.timeNs);
    EXPECT_LT(fast.commands.acts, slow.commands.acts);
}

TEST_F(PimModelTest, ColumnPartitioningIsCrucial)
{
    // Fig. 10: dropping the CP layout makes element-wise time ~2.2x
    // slower on A100.
    PimConfig noCp = PimConfig::nearBankA100();
    noCp.columnPartition = false;
    const PimKernelModel noCpModel(DramConfig::hbm2A100(), noCp);
    const auto with = model_.execute(PimOpcode::PAccum, 4, 68, 1 << 16);
    const auto without =
        noCpModel.execute(PimOpcode::PAccum, 4, 68, 1 << 16);
    const double slowdown = without.timeNs / with.timeNs;
    EXPECT_GT(slowdown, 1.5);
    EXPECT_LT(slowdown, 4.0);
}

TEST_F(PimModelTest, DegradedDeviceStretchesLockstepStreams)
{
    // Offline banks: each healthy bank absorbs more chunks per limb,
    // so the lockstep stream takes longer; energy only charges the
    // banks that still switch, so it must not grow with the slowdown.
    PimConfig degraded = PimConfig::nearBankA100();
    for (size_t b = 0; b < 32; ++b)
        degraded.offlineBanks.push_back(b);
    const PimKernelModel degradedModel(DramConfig::hbm2A100(), degraded);
    const auto healthy = model_.execute(PimOpcode::PAccum, 4, 68, 1 << 16);
    const auto slower =
        degradedModel.execute(PimOpcode::PAccum, 4, 68, 1 << 16);
    EXPECT_GT(slower.timeNs, healthy.timeNs);

    // Dead lanes: survivors serialize their multiplies.
    PimConfig laneDegraded = PimConfig::nearBankA100();
    laneDegraded.quarantinedLanes = 4; // 8 -> 4 lanes
    const PimKernelModel laneModel(DramConfig::hbm2A100(), laneDegraded);
    const auto laneSlower =
        laneModel.execute(PimOpcode::Mult, 1, 54, 1 << 16);
    const auto laneHealthy =
        model_.execute(PimOpcode::Mult, 1, 54, 1 << 16);
    EXPECT_GT(laneSlower.timeNs, laneHealthy.timeNs);
    // Total multiplies are unchanged, so MMAC energy is too: the lane
    // quarantine costs time, not energy.
    EXPECT_NEAR(laneSlower.energyPj, laneHealthy.energyPj,
                0.05 * laneHealthy.energyPj);
}

TEST_F(PimModelTest, DegradedConfigTracksTheWorstDieGroup)
{
    // Lockstep ties the device to its worst group: degraded() must
    // adopt that group's offline banks and the worst lane count.
    ResourceMap map;
    map.dieGroups = 5;
    map.banksPerDieGroup = 512;
    map.lanesPerUnit = 8;
    map.quarantined = {
        {FaultSiteId::Kind::Bank, 1, 40},
        {FaultSiteId::Kind::Bank, 3, 7},
        {FaultSiteId::Kind::Bank, 3, 200},
        {FaultSiteId::Kind::MmacLane, 0, 2},
    };
    const PimConfig degraded = PimConfig::nearBankA100().degraded(map);
    EXPECT_EQ(degraded.offlineBanks, (std::vector<size_t>{7, 200}));
    EXPECT_EQ(degraded.quarantinedLanes, 1u);
    EXPECT_EQ(degraded.healthyBanksPerDieGroup(), 510u);
    EXPECT_EQ(degraded.healthyLanes(), 7u);
    // Nothing quarantined: identity.
    const PimConfig same =
        PimConfig::nearBankA100().degraded(ResourceMap{});
    EXPECT_TRUE(same.offlineBanks.empty());
    EXPECT_EQ(same.quarantinedLanes, 0u);
}

TEST_F(PimModelTest, CustomHbmHidesActPreButStreamsSlower)
{
    const PimKernelModel custom(DramConfig::hbm2A100(),
                                PimConfig::customHbmA100());
    // For a simple streaming op custom-HBM is slower (4x vs 16x BW).
    const auto nearAdd = model_.execute(PimOpcode::Add, 1, 54, 1 << 16);
    const auto customAdd = custom.execute(PimOpcode::Add, 1, 54, 1 << 16);
    EXPECT_GT(customAdd.timeNs, nearAdd.timeNs);
    // Saturation with B is faster for custom-HBM (Fig. 9): shrinking the
    // buffer hurts it less than near-bank.
    PimConfig smallNear = PimConfig::nearBankA100();
    smallNear.bufferEntries = 8;
    PimConfig smallCustom = PimConfig::customHbmA100();
    smallCustom.bufferEntries = 8;
    const PimKernelModel nearSmall(DramConfig::hbm2A100(), smallNear);
    const PimKernelModel customSmall(DramConfig::hbm2A100(), smallCustom);
    const double nearPenalty =
        nearSmall.execute(PimOpcode::PAccum, 4, 68, 1 << 16).timeNs /
        model_.execute(PimOpcode::PAccum, 4, 68, 1 << 16).timeNs;
    const double customPenalty =
        customSmall.execute(PimOpcode::PAccum, 4, 68, 1 << 16).timeNs /
        custom.execute(PimOpcode::PAccum, 4, 68, 1 << 16).timeNs;
    EXPECT_GT(nearPenalty, customPenalty);
}

// --- Price table: PimKernelModel prices each shape once ---

struct PriceShape {
    PimOpcode opcode;
    size_t fanIn;
    size_t limbs;
    size_t n;
};

/** Every opcode at fan-in 1, plus PAccum/CAccum fan-ins up to 24 (the
 *  larger ones chain pieces at every B of the grid), over the limb
 *  counts and ring degrees the workloads use. */
std::vector<PriceShape>
priceTableShapes()
{
    std::vector<PriceShape> shapes;
    for (int op = 0; op <= static_cast<int>(PimOpcode::CAccum); ++op) {
        const auto opcode = static_cast<PimOpcode>(op);
        const bool accum =
            opcode == PimOpcode::PAccum || opcode == PimOpcode::CAccum;
        const std::vector<size_t> fanIns =
            accum ? std::vector<size_t>{1, 2, 3, 4, 5, 8, 16, 24}
                  : std::vector<size_t>{1};
        for (const size_t fanIn : fanIns) {
            for (const size_t limbs : {1u, 5u, 54u, 68u}) {
                for (const size_t n : {size_t{1} << 12, size_t{1} << 16})
                    shapes.push_back({opcode, fanIn, limbs, n});
            }
        }
    }
    return shapes;
}

/** Both variants x B in {4..64} x {healthy, 32 offline banks, 4
 *  quarantined lanes}. */
std::vector<PimConfig>
priceTableConfigs()
{
    std::vector<PimConfig> configs;
    for (const PimConfig &variant :
         {PimConfig::nearBankA100(), PimConfig::customHbmA100()}) {
        for (const size_t b : {4u, 8u, 16u, 32u, 64u}) {
            PimConfig healthy = variant;
            healthy.bufferEntries = b;
            PimConfig offline = healthy;
            for (size_t bank = 0; bank < 32; ++bank)
                offline.offlineBanks.push_back(bank);
            PimConfig lanes = healthy;
            lanes.quarantinedLanes = 4;
            configs.insert(configs.end(), {healthy, offline, lanes});
        }
    }
    return configs;
}

std::vector<size_t>
shuffledIndices(size_t count, uint64_t seed)
{
    std::vector<size_t> order(count);
    std::iota(order.begin(), order.end(), size_t{0});
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

/** Every field equal, doubles compared as bit patterns. */
bool
bitwiseEqual(const PimExecStats &a, const PimExecStats &b)
{
    const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    return bits(a.timeNs) == bits(b.timeNs) &&
           bits(a.energyPj) == bits(b.energyPj) &&
           a.commands.acts == b.commands.acts &&
           a.commands.reads == b.commands.reads &&
           a.commands.writes == b.commands.writes &&
           a.commands.pres == b.commands.pres &&
           bits(a.chunksMoved) == bits(b.chunksMoved) &&
           a.chunkGranularity == b.chunkGranularity &&
           a.supported == b.supported;
}

PimExecStats
priceOn(const PimKernelModel &model, const PriceShape &shape)
{
    return model.execute(shape.opcode, shape.fanIn, shape.limbs, shape.n);
}

uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

/** Word-wise FNV-1a step. */
uint64_t
fnv(uint64_t hash, uint64_t word)
{
    return (hash ^ word) * 0x100000001b3ull;
}

/** FNV digest of every field of every price of priceTableShapes() on
 *  `model`, doubles folded in as bit patterns. */
uint64_t
priceDigest(const PimKernelModel &model)
{
    const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const PriceShape &shape : priceTableShapes()) {
        const PimExecStats s = priceOn(model, shape);
        for (const uint64_t word :
             {bits(s.timeNs), bits(s.energyPj), s.commands.acts,
              s.commands.reads, s.commands.writes, s.commands.pres,
              bits(s.chunksMoved), uint64_t{s.chunkGranularity},
              uint64_t{s.supported}})
            hash = fnv(hash, word);
    }
    return hash;
}

TEST(PimPriceTable, PricesMatchPinnedDigests)
{
    // Every price the model can give, pinned bit for bit: each device
    // preset on its own DRAM x B x {healthy, 32 offline banks, 4
    // quarantined lanes, no column partitioning}. The figure goldens
    // see only the shapes the benches price; these digests see every
    // opcode, chained fan-in, limb count and ring degree of
    // priceTableShapes() on every degraded geometry.
    struct Device {
        const char *name;
        DramConfig dram;
        PimConfig pim;
    };
    const Device devices[] = {
        {"A100 near-bank", DramConfig::hbm2A100(),
         PimConfig::nearBankA100()},
        {"A100 custom-HBM", DramConfig::hbm2A100(),
         PimConfig::customHbmA100()},
        {"RTX 4090 near-bank", DramConfig::gddr6xRtx4090(),
         PimConfig::nearBankRtx4090()},
    };
    constexpr size_t kBuffers[] = {4, 8, 16, 32, 64};
    const char *const geometries[] = {"healthy", "32 offline banks",
                                      "4 quarantined lanes", "no CP"};
    static constexpr uint64_t kDigests[3][5][4] = {
        {
            {0xb89897026a07aa7aull, 0xf9719dac631a77a4ull,
             0xcc4a2455159e8783ull, 0xf385a37c5a8912ddull},
            {0x06e3075f8a07c339ull, 0xdc0a2afb8ac29d0dull,
             0x6c96ee76ddb9c432ull, 0x9527911a3134b7ceull},
            {0x00e68fa5e66f9806ull, 0xadac12856cde245full,
             0x457bf8d0d3b7a009ull, 0xd9be033c484623d2ull},
            {0x6caf9e405203143eull, 0xf949f97dc2cecb4aull,
             0xd21d347a4c4910eaull, 0x8ed7b4f34264b259ull},
            {0xbc209ccb5b2ba700ull, 0xa240f7ee64ce0c21ull,
             0x231a929e29545dbfull, 0x068d37ce3482f3a0ull},
        },
        {
            {0x78a7427bca71cb6eull, 0xb66fa19e9daa8a09ull,
             0xdd1ef259fb286a2dull, 0xe6beb22ad9ded68cull},
            {0xc31a5277ed13f624ull, 0x8650378da7943bc2ull,
             0x7321c6b2f523bbdfull, 0x72ae0a4786ef493full},
            {0x5acf158475fc3e08ull, 0xb5f547939319a2ffull,
             0xe114a6810b84a7d2ull, 0x4a33a43475f44f2dull},
            {0xd01dbb44b940c215ull, 0xa04acb113e5aafa4ull,
             0x4917f8d8692dfc04ull, 0xd667c1d1fa3c03c9ull},
            {0x002fcb93751cd59cull, 0x0d2cd9a5777b75ddull,
             0x2a643296774acd92ull, 0xf9ad6dbcd7fb4807ull},
        },
        {
            {0x9d4072dd6233bfc8ull, 0x8d2d37e95604f09dull,
             0x4e45c838497deea5ull, 0x475aadf85503bd1bull},
            {0xcd5df06b2b20ee0cull, 0xa6ac534b80757cc1ull,
             0xb97402ecbc1cca27ull, 0xb61fd4db9d9829cfull},
            {0xbfd3bb5b71f0354cull, 0x40590dc71052fd82ull,
             0xea0ffce695fdc959ull, 0xf6e54da54c839ac1ull},
            {0xc13b284252a8bef2ull, 0xa60f6d797eb96feaull,
             0x649e5cfe84396eedull, 0x899a43e63e81b28cull},
            {0xef9c7468880b7153ull, 0x157272f1cf8af017ull,
             0x83892e9ee376c583ull, 0x6db6cbfc18549b82ull},
        },
    };
    for (size_t d = 0; d < 3; ++d) {
        for (size_t b = 0; b < 5; ++b) {
            for (size_t g = 0; g < 4; ++g) {
                PimConfig config = devices[d].pim;
                config.bufferEntries = kBuffers[b];
                if (g == 1) {
                    for (size_t bank = 0; bank < 32; ++bank)
                        config.offlineBanks.push_back(bank);
                } else if (g == 2) {
                    config.quarantinedLanes = 4;
                } else if (g == 3) {
                    config.columnPartition = false;
                }
                const uint64_t digest =
                    priceDigest(PimKernelModel(devices[d].dram, config));
                EXPECT_EQ(digest, kDigests[d][b][g])
                    << devices[d].name << " B=" << kBuffers[b] << " "
                    << geometries[g] << ": 0x" << std::hex << digest;
            }
        }
    }
}

TEST(PimPriceTable, WarmModelMatchesFreshModelsBitwise)
{
    // Pricing is a pure function of (model config, shape): a shared
    // model answering from its table must return exactly what a fresh
    // model computes, on every geometry, including chained pieces.
    const std::vector<PriceShape> shapes = priceTableShapes();
    obs::Gauge &chunks =
        obs::MetricsRegistry::global().gauge("pim.model.chunks_moved");
    uint64_t calls = 0;
    const uint64_t hitsBefore = counterValue("pim.model.price_hits");
    const uint64_t missesBefore = counterValue("pim.model.price_misses");
    const uint64_t instrBefore = counterValue("pim.model.instructions");
    for (const PimConfig &config : priceTableConfigs()) {
        std::vector<PimExecStats> fresh;
        for (const PriceShape &shape : shapes)
            fresh.push_back(
                priceOn(PimKernelModel(DramConfig::hbm2A100(), config),
                        shape));
        calls += shapes.size();

        const PimKernelModel shared(DramConfig::hbm2A100(), config);
        const uint64_t sharedMisses = counterValue("pim.model.price_misses");
        const uint64_t sharedHits = counterValue("pim.model.price_hits");
        for (const uint64_t visit : {1u, 2u}) {
            double chunkSum = 0.0;
            const double chunksBefore = chunks.value();
            for (const size_t i : shuffledIndices(shapes.size(), visit)) {
                const PimExecStats warm = priceOn(shared, shapes[i]);
                chunkSum += warm.chunksMoved;
                EXPECT_TRUE(bitwiseEqual(warm, fresh[i]))
                    << pimOpcodeName(shapes[i].opcode) << "<"
                    << shapes[i].fanIn << "> limbs=" << shapes[i].limbs
                    << " n=" << shapes[i].n << " B=" << config.bufferEntries
                    << " visit " << visit;
            }
            calls += shapes.size();
            // Hits count their chunks like misses do.
            EXPECT_DOUBLE_EQ(chunks.value() - chunksBefore, chunkSum);
        }
        // The first visit priced every shape once; the second only hit.
        EXPECT_EQ(counterValue("pim.model.price_misses") - sharedMisses,
                  shapes.size());
        EXPECT_EQ(counterValue("pim.model.price_hits") - sharedHits,
                  shapes.size());
    }
    const uint64_t hits = counterValue("pim.model.price_hits") - hitsBefore;
    const uint64_t misses =
        counterValue("pim.model.price_misses") - missesBefore;
    EXPECT_EQ(hits + misses, calls);
    EXPECT_EQ(counterValue("pim.model.instructions") - instrBefore, calls);
}

TEST(PimPriceTable, ConcurrentPricingOnOneModelAgrees)
{
    // Four threads price the same shapes on one model in different
    // orders; the table is filled exactly once per shape.
    constexpr size_t kThreads = 4;
    const std::vector<PriceShape> shapes = priceTableShapes();
    PimConfig config = PimConfig::nearBankA100();
    config.bufferEntries = 8;
    const PimKernelModel shared(DramConfig::hbm2A100(), config);
    const uint64_t missesBefore = counterValue("pim.model.price_misses");
    std::vector<std::vector<PimExecStats>> results(
        kThreads, std::vector<PimExecStats>(shapes.size()));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (const size_t i : shuffledIndices(shapes.size(), 10 + t))
                results[t][i] = priceOn(shared, shapes[i]);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(counterValue("pim.model.price_misses") - missesBefore,
              shapes.size());
    for (size_t i = 0; i < shapes.size(); ++i) {
        const PimExecStats fresh =
            priceOn(PimKernelModel(DramConfig::hbm2A100(), config),
                    shapes[i]);
        for (size_t t = 0; t < kThreads; ++t)
            EXPECT_TRUE(bitwiseEqual(results[t][i], fresh))
                << "shape " << i << " thread " << t;
    }
}

TEST(PimPriceTable, ChainedAccumulationCountsEveryPiece)
{
    // PAccum<16> needs 18 buffer regions, more than B = 16 holds, so it
    // runs as chained pieces; the chunk gauge must add all of them.
    PimConfig config = PimConfig::nearBankA100();
    config.bufferEntries = 16;
    const PimKernelModel model(DramConfig::hbm2A100(), config);
    obs::Gauge &chunks =
        obs::MetricsRegistry::global().gauge("pim.model.chunks_moved");
    const double before = chunks.value();
    const PimExecStats stats =
        model.execute(PimOpcode::PAccum, 16, 54, 1 << 16);
    EXPECT_DOUBLE_EQ(chunks.value() - before, stats.chunksMoved);
    // The pieces together move more than the first piece alone.
    EXPECT_GT(stats.chunksMoved,
              model.execute(PimOpcode::PAccum, 4, 54, 1 << 16).chunksMoved);
}

TEST_F(PimFunctionalTest, UnaryOpsRejectEmptyOperands)
{
    const PimVector empty;
    EXPECT_ANAHEIM_ERROR(unit_.move(empty), InvalidArgument,
                         "empty operand");
    EXPECT_ANAHEIM_ERROR(unit_.neg(empty), InvalidArgument,
                         "empty operand");
    EXPECT_ANAHEIM_ERROR(unit_.cAdd(empty, 3), InvalidArgument,
                         "empty operand");
    EXPECT_ANAHEIM_ERROR(unit_.cMult(empty, 3), InvalidArgument,
                         "empty operand");
}

TEST_F(PimFunctionalTest, BinaryOpsRejectSizeMismatches)
{
    const auto a = randomVec(64);
    const auto shorter = randomVec(32);
    EXPECT_ANAHEIM_ERROR(unit_.add(a, shorter), InvalidArgument,
                         "size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.sub(a, shorter), InvalidArgument,
                         "size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.mult(a, shorter), InvalidArgument,
                         "size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.cMac(a, shorter, 5), InvalidArgument,
                         "size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.mac(a, a, shorter), InvalidArgument,
                         "size mismatch");
}

TEST_F(PimFunctionalTest, TensorAndModDownRejectSizeMismatches)
{
    const auto a = randomVec(64);
    const auto b = randomVec(64);
    const auto shorter = randomVec(32);
    EXPECT_ANAHEIM_ERROR(unit_.tensor(a, b, a, shorter), InvalidArgument,
                         "Tensor operand size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.tensor(a, shorter, a, b), InvalidArgument,
                         "Tensor operand size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.modDownEp(a, shorter, 7), InvalidArgument,
                         "ModDownEp operand size mismatch");
    EXPECT_ANAHEIM_ERROR(unit_.pAccum({a}, {a, b}, {a}), InvalidArgument,
                         "fan-in mismatch");
    // Well-formed calls still succeed after a rejection.
    EXPECT_EQ(unit_.tensor(a, b, a, b)[0].size(), 64u);
    EXPECT_EQ(unit_.modDownEp(a, b, 7).size(), 64u);
}

} // namespace
} // namespace anaheim
