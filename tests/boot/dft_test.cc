#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "boot/dft.h"
#include "common/rng.h"
#include "lintrans/lintrans.h"

namespace anaheim {
namespace {

using Complex = std::complex<double>;

std::vector<Complex>
randomVec(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Complex> v(n);
    for (auto &x : v)
        x = {2.0 * rng.uniformReal() - 1.0, 2.0 * rng.uniformReal() - 1.0};
    return v;
}

double
maxError(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    double err = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        err = std::max(err, std::abs(a[i] - b[i]));
    return err;
}

class DftPlanTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(DftPlanTest, FactorsComposeToReferenceTransforms)
{
    const auto [slots, fftIter] = GetParam();
    const DftPlan plan(slots, fftIter);
    const auto v = randomVec(slots, slots + fftIter);

    // CoeffToSlot factors applied in order must equal the reference.
    {
        const auto factors = plan.coeffToSlotFactors({1.0, 0.0});
        ASSERT_EQ(factors.size(), fftIter);
        auto cur = v;
        for (const auto &factor : factors)
            cur = factor.apply(cur);
        EXPECT_LT(maxError(cur, plan.applyCoeffToSlot(v)), 1e-9);
    }
    // Same for SlotToCoeff.
    {
        const auto factors = plan.slotToCoeffFactors({1.0, 0.0});
        auto cur = v;
        for (const auto &factor : factors)
            cur = factor.apply(cur);
        EXPECT_LT(maxError(cur, plan.applySlotToCoeff(v)), 1e-9);
    }
}

TEST_P(DftPlanTest, CtsThenStcIsIdentity)
{
    // The bit-reversal-free factorization must still satisfy
    // StC(CtS(x)) == x, since EvalMod between them is slot-wise.
    const auto [slots, fftIter] = GetParam();
    const DftPlan plan(slots, fftIter);
    const auto v = randomVec(slots, 1000 + slots);
    const auto roundTrip = plan.applySlotToCoeff(plan.applyCoeffToSlot(v));
    EXPECT_LT(maxError(roundTrip, v), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DftPlanTest,
    ::testing::Values(std::pair<size_t, size_t>{8, 1},
                      std::pair<size_t, size_t>{8, 3},
                      std::pair<size_t, size_t>{64, 1},
                      std::pair<size_t, size_t>{64, 2},
                      std::pair<size_t, size_t>{64, 3},
                      std::pair<size_t, size_t>{64, 6},
                      std::pair<size_t, size_t>{256, 2},
                      std::pair<size_t, size_t>{256, 4}));

TEST(DftPlan, FactorsAreSparse)
{
    // Each factor groups ceil(log n / fftIter) radix-2 stages, so its
    // diagonal count is bounded by 2^(stages+1) - 1.
    const DftPlan plan(256, 4);
    for (const auto &factor : plan.coeffToSlotFactors({1.0, 0.0})) {
        EXPECT_LE(factor.diagonalCount(), 7u); // 2 stages -> <= 2^3-1
        EXPECT_GE(factor.diagonalCount(), 2u);
    }
}

TEST(DftPlan, BootstrapFactorsNeedFewBsgsRotations)
{
    // The 1024-slot bootstrap plan: CoeffToSlot is a stride-32 factor
    // (32 diagonals) then a band of offsets -31..31 (63 diagonals), and
    // SlotToCoeff the reverse. Split over signed offsets, the band takes
    // 7 babies + 7 giants and the stride 5 + 5, so the bootstrap needs
    // 24 rotation keys (a split over non-negative indices took 62).
    const DftPlan plan(1024, 2);
    std::vector<DiagMatrix> factors = plan.coeffToSlotFactors({1.0, 0.0});
    for (auto &factor : plan.slotToCoeffFactors({1.0, 0.0}))
        factors.push_back(std::move(factor));
    const std::vector<size_t> expectDiagonals = {32, 63, 63, 32};
    const std::vector<size_t> expectWidths = {192, 8, 8, 192};
    const std::vector<size_t> expectRotations = {10, 14, 14, 10};
    std::set<int> keys;
    ASSERT_EQ(factors.size(), 4u);
    for (size_t f = 0; f < factors.size(); ++f) {
        const auto rotations = LinearTransformer::requiredRotations(
            factors[f], LinTransAlgorithm::BsgsHoisting);
        EXPECT_EQ(factors[f].diagonalCount(), expectDiagonals[f]) << f;
        EXPECT_EQ(LinearTransformer::bsgsBabyCount(factors[f]),
                  expectWidths[f])
            << f;
        EXPECT_EQ(rotations.size(), expectRotations[f]) << f;
        keys.insert(rotations.begin(), rotations.end());
    }
    EXPECT_EQ(keys.size(), 24u);
}

// ---------------------------------------------------------------------
// Pinned factor digests: every entry of every CoeffToSlot and
// SlotToCoeff factor, for slots {4, 8, 64, 1024} x every valid fftIter
// x extra scales {1, 0.0055, 1000}, as computed from dense matrices
// (one unit column pushed through every stage, then a scan of every
// diagonal). A change to how factors are built must keep these.

/** FNV-1a over the bytes of each 64-bit word. */
class Fnv1a
{
  public:
    void
    add(uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte)
            hash_ = (hash_ ^ ((word >> (8 * byte)) & 0xff)) *
                    1099511628211ULL;
    }

    /** The bits of x, with -0.0 folded to +0.0: the digest pins what
     *  IEEE == compares, and a zero's sign never reaches a ciphertext
     *  (encoding rounds it away). */
    void
    add(double x)
    {
        const double folded = x == 0.0 ? 0.0 : x;
        uint64_t bits;
        std::memcpy(&bits, &folded, sizeof(bits));
        add(bits);
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 14695981039346656037ULL;
};

void
addFactors(Fnv1a &hash, const std::vector<DiagMatrix> &factors)
{
    hash.add(static_cast<uint64_t>(factors.size()));
    for (const DiagMatrix &factor : factors) {
        hash.add(static_cast<uint64_t>(factor.diagonalCount()));
        for (const auto &[d, diag] : factor.diagonals()) {
            hash.add(static_cast<uint64_t>(d));
            for (const Complex &x : diag) {
                hash.add(x.real());
                hash.add(x.imag());
            }
        }
    }
}

TEST(DftPlan, FactorsMatchPinnedDigests)
{
    const std::map<std::string, uint64_t> pinned = {
        {"cts/4", 0x3502f45d91cf9bb3ULL},
        {"stc/4", 0xe98a4ff046ff0f8fULL},
        {"cts/8", 0xdc862c4d3ec10658ULL},
        {"stc/8", 0x29beab24a6036b28ULL},
        {"cts/64", 0x5f0e0b6ce71a4ad5ULL},
        {"stc/64", 0x13bcb20a3dec2cfdULL},
        {"cts/1024", 0x083629ab676f8c6dULL},
        {"stc/1024", 0x28d8f1ec3aaa6011ULL},
    };
    for (const size_t slots : {4, 8, 64, 1024}) {
        Fnv1a cts, stc;
        for (size_t fftIter = 1; (size_t{1} << fftIter) <= slots;
             ++fftIter) {
            const DftPlan plan(slots, fftIter);
            for (const double scale : {1.0, 0.0055, 1000.0}) {
                addFactors(cts, plan.coeffToSlotFactors({scale, 0.0}));
                addFactors(stc, plan.slotToCoeffFactors({scale, 0.0}));
            }
        }
        for (const auto &[label, hash] :
             {std::pair{"cts/" + std::to_string(slots), cts.value()},
              std::pair{"stc/" + std::to_string(slots), stc.value()}}) {
            char actual[32];
            std::snprintf(actual, sizeof(actual), "0x%016llx",
                          static_cast<unsigned long long>(hash));
            EXPECT_EQ(hash, pinned.at(label))
                << label << " now digests to " << actual;
        }
    }
}

TEST(DftPlan, ExtraScaleIsAppliedOnce)
{
    const DftPlan plan(64, 2);
    const auto v = randomVec(64, 7);
    const auto factors = plan.coeffToSlotFactors({0.25, 0.0});
    auto cur = v;
    for (const auto &factor : factors)
        cur = factor.apply(cur);
    auto expect = plan.applyCoeffToSlot(v);
    for (auto &x : expect)
        x *= 0.25;
    EXPECT_LT(maxError(cur, expect), 1e-9);
}

} // namespace
} // namespace anaheim
