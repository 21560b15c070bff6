#include <gtest/gtest.h>

#include "ckks/context.h"
#include "ckks/params.h"
#include "math/modarith.h"

namespace anaheim {
namespace {

TEST(CkksParams, DnumMatchesDefinition)
{
    CkksParams params = CkksParams::testParams(1 << 10, 8, 2);
    EXPECT_EQ(params.dnum(), 4u);
    params.levels = 7;
    EXPECT_EQ(params.dnum(), 4u); // ceil(7/2)
    params.alpha = 7;
    EXPECT_EQ(params.dnum(), 1u);
}

TEST(CkksParams, TestParamsAreSmallAndValid)
{
    const auto params = CkksParams::testParams();
    params.validate(); // must not die
    EXPECT_LE(params.n, size_t{1} << 12);
}

TEST(CkksParamsDeath, ValidateRejectsBadCombos)
{
    CkksParams params = CkksParams::testParams();
    params.alpha = params.levels + 1;
    EXPECT_DEATH(params.validate(), "bad alpha");

    params = CkksParams::testParams();
    params.firstModulusBits = params.logScale;
    EXPECT_DEATH(params.validate(), "first modulus");
}

TEST(CkksContext, BasesAreDisjointAndOrdered)
{
    const CkksContext context(CkksParams::testParams(1 << 9, 5, 2));
    EXPECT_EQ(context.qBasis().size(), 5u);
    EXPECT_EQ(context.pBasis().size(), 2u);
    EXPECT_EQ(context.qpBasis().size(), 7u);
    for (size_t i = 0; i < 5; ++i)
        EXPECT_EQ(context.qpBasis().prime(i), context.qBasis().prime(i));
    for (size_t i = 0; i < 2; ++i)
        EXPECT_EQ(context.qpBasis().prime(5 + i), context.pBasis().prime(i));
    // All primes distinct.
    for (size_t i = 0; i < 7; ++i)
        for (size_t j = i + 1; j < 7; ++j)
            EXPECT_NE(context.qpBasis().prime(i), context.qpBasis().prime(j));
}

TEST(CkksContext, DigitRangesTileTheLevels)
{
    const CkksContext context(CkksParams::testParams(1 << 9, 5, 2));
    // 5 levels, alpha=2 -> digits [0,2) [2,4) [4,5).
    EXPECT_EQ(context.dnum(), 3u);
    EXPECT_EQ(context.digitRange(0), (std::pair<size_t, size_t>{0, 2}));
    EXPECT_EQ(context.digitRange(1), (std::pair<size_t, size_t>{2, 4}));
    EXPECT_EQ(context.digitRange(2), (std::pair<size_t, size_t>{4, 5}));
    EXPECT_EQ(context.digitsAtLevel(5), 3u);
    EXPECT_EQ(context.digitsAtLevel(4), 2u);
    EXPECT_EQ(context.digitsAtLevel(1), 1u);
}

TEST(CkksContext, GadgetConstantsAreConsistent)
{
    const CkksContext context(CkksParams::testParams(1 << 9, 5, 2));
    for (size_t i = 0; i < context.maxLevel(); ++i) {
        const uint64_t qi = context.qBasis().prime(i);
        EXPECT_EQ(mulMod(context.pModQ()[i], context.pInvModQ()[i], qi),
                  1u);
    }
}

TEST(CkksContext, ConverterCacheReturnsSameInstance)
{
    const CkksContext context(CkksParams::testParams(1 << 9, 5, 2));
    const auto &c1 =
        context.converter(context.pBasis(), context.levelBasis(3));
    const auto &c2 =
        context.converter(context.pBasis(), context.levelBasis(3));
    EXPECT_EQ(&c1, &c2);
}

} // namespace
} // namespace anaheim
