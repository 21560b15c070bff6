/**
 * @file
 * The fixed-size trace record: its inline operand lists hold 3 reads
 * and 1 write and raise past that in every build type, and its 32-bit
 * counts carry the widest limb counts the tests build.
 */

#include <gtest/gtest.h>

#include "support/error_matchers.h"
#include "support/row_budget.h"
#include "trace/builders.h"
#include "trace/validate.h"

namespace anaheim {
namespace {

TEST(KernelOpRecord, AFourthReadRaisesInvalidArgument)
{
    KernelOp op;
    op.reads = {{OperandKind::Working, 2},
                {OperandKind::PlainConst, 1},
                {OperandKind::Intermediate, 2}};
    EXPECT_ANAHEIM_ERROR(op.reads.push_back({OperandKind::Evk, 8}),
                         InvalidArgument, "at most 3 operands");
    // The full list is left as it was.
    ASSERT_EQ(op.reads.size(), 3u);
    EXPECT_EQ(op.reads[2].kind, OperandKind::Intermediate);
    const auto fourReads = [] {
        return OperandList<3>{{OperandKind::Working, 2},
                              {OperandKind::PlainConst, 1},
                              {OperandKind::Intermediate, 2},
                              {OperandKind::Evk, 8}};
    };
    EXPECT_ANAHEIM_ERROR(fourReads(), InvalidArgument, "at most 3");
}

TEST(KernelOpRecord, ASecondWriteRaisesInvalidArgument)
{
    OpSequence seq = buildHAdd(TraceParams{});
    KernelOp &op = seq.ops[0];
    ASSERT_EQ(op.writes.size(), 1u);
    EXPECT_ANAHEIM_ERROR(op.writes.push_back({OperandKind::Working, 1}),
                         InvalidArgument, "at most 1 operand");
    EXPECT_EQ(op.writes.size(), 1u);
    // clear() empties the list for reuse.
    op.writes.clear();
    EXPECT_TRUE(op.writes.empty());
    op.writes.push_back({OperandKind::Intermediate, 7});
    EXPECT_EQ(op.writes[0].limbs, 7u);
}

TEST(KernelOpRecord, WideLimbCountsSurviveInTheOpAndItsOperands)
{
    // The row-budget fixture's HADD: 92,000-limb result, 184,000-limb
    // read.
    const OpSequence budget = test_support::nearRowBudgetHAdd();
    const KernelOp &hadd = budget.ops[0];
    EXPECT_EQ(hadd.limbs, 92000u);
    EXPECT_EQ(hadd.reads[0].limbs, 184000u);
    EXPECT_EQ(hadd.writes[0].limbs, 92000u);

    TraceParams params;
    params.level = size_t{1} << 19;
    const OpSequence wide = buildHAdd(params);
    EXPECT_EQ(wide.ops[0].limbs, size_t{1} << 20);
    EXPECT_EQ(wide.ops[0].reads[0].limbs, size_t{1} << 21);
    EXPECT_EQ(wide.ops[0].writes[0].limbs, size_t{1} << 20);
    // Bytes widen to double before they multiply.
    EXPECT_DOUBLE_EQ(wide.ops[0].writeBytes(),
                     double(size_t{1} << 20) * limbBytes(params.n));
    EXPECT_TRUE(validateTrace(wide).empty());
}

TEST(KernelOpRecord, CountsPastThirtyTwoBitsRaise)
{
    EXPECT_ANAHEIM_ERROR(Operand(OperandKind::Working, size_t{1} << 32),
                         InvalidArgument, "does not fit in 32 bits");
    TraceParams params;
    params.level = size_t{1} << 31;
    EXPECT_ANAHEIM_ERROR(buildHAdd(params), InvalidArgument,
                         "does not fit in 32 bits");
}

TEST(KernelOpRecord, HandBuiltOpsKeepTheEmptyPhaseName)
{
    // Ops made outside the builders, as many tests make them, had an
    // empty phase string; their timeline entries still read "".
    EXPECT_EQ(tracePhaseName(KernelOp{}.phase), "");
}

} // namespace
} // namespace anaheim
