#include <gtest/gtest.h>

#include "anaheim/workloads.h"
#include "support/error_matchers.h"
#include "trace/validate.h"

namespace anaheim {
namespace {

TEST(TraceValidate, AllBuildersProduceValidTraces)
{
    for (const auto &[info, seq] : makeAllWorkloads()) {
        const auto issues = validateTrace(seq);
        EXPECT_TRUE(issues.empty())
            << info.name << ": op " << (issues.empty() ? 0 : issues[0].opIndex)
            << " "
            << (issues.empty() ? "" : issues[0].description);
    }
    for (auto algorithm :
         {TraceLtAlgorithm::Base, TraceLtAlgorithm::Hoisting,
          TraceLtAlgorithm::MinKS}) {
        const auto seq =
            buildLinearTransform(TraceParams{}, 8, algorithm);
        EXPECT_TRUE(validateTrace(seq).empty());
    }
    EXPECT_TRUE(validateTrace(buildHMult(TraceParams{})).empty());
    EXPECT_TRUE(validateTrace(buildHRot(TraceParams{})).empty());
    EXPECT_TRUE(validateTrace(buildRescale(TraceParams{})).empty());
}

TEST(TraceValidate, DetectsZeroLimbOps)
{
    OpSequence seq = buildHAdd(TraceParams{});
    seq.ops[0].limbs = 0;
    const auto issues = validateTrace(seq);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].description.find("zero limbs"), std::string::npos);
}

TEST(TraceValidate, DetectsMislabeledPimEligibility)
{
    OpSequence seq = buildHMult(TraceParams{});
    for (auto &op : seq.ops) {
        if (op.type == KernelType::Ntt) {
            op.pimEligible = true;
            break;
        }
    }
    const auto issues = validateTrace(seq);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].description.find("PIM-eligible"),
              std::string::npos);
}

TEST(TraceValidate, DetectsDegreeMismatch)
{
    OpSequence seq = buildHAdd(TraceParams{});
    seq.ops[0].n = 1024;
    EXPECT_FALSE(validateTrace(seq).empty());
}

TEST(TraceValidate, CheckTraceThrowsRecoverableErrorOnBadTrace)
{
    OpSequence seq = buildHAdd(TraceParams{});
    seq.ops[0].writes.clear();
    EXPECT_ANAHEIM_ERROR(checkTrace(seq), InvalidArgument,
                         "invalid trace");
    EXPECT_ANAHEIM_ERROR(checkTrace(seq), InvalidArgument,
                         "writes nothing");
    // A valid trace passes without throwing.
    EXPECT_NO_THROW(checkTrace(buildHAdd(TraceParams{})));
}

} // namespace
} // namespace anaheim
