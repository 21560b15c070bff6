/**
 * @file
 * Error-path coverage for the recoverable error layer: every former
 * exit(1) site in library code now throws AnaheimError, and callers
 * can catch, inspect, and continue.
 */

#include <gtest/gtest.h>

#include "common/status.h"
#include "math/primes.h"
#include "support/error_matchers.h"
#include "trace/builders.h"
#include "trace/validate.h"

namespace anaheim {
namespace {

TEST(Status, BasicsAndNames)
{
    const Status ok = Status::okStatus();
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.toString(), "Ok");

    const Status bad(ErrorCode::InvalidArgument, "ragged input");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), ErrorCode::InvalidArgument);
    EXPECT_EQ(bad.toString(), "InvalidArgument: ragged input");

    EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "Ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::ResourceExhausted),
                 "ResourceExhausted");
    EXPECT_STREQ(errorCodeName(ErrorCode::DataCorruption),
                 "DataCorruption");
}

TEST(Status, AnaheimErrorCarriesCodeAndMessage)
{
    try {
        ANAHEIM_RAISE(DataCorruption, "bank ", 3, " poisoned");
        FAIL() << "ANAHEIM_RAISE did not throw";
    } catch (const AnaheimError &error) {
        EXPECT_EQ(error.code(), ErrorCode::DataCorruption);
        EXPECT_STREQ(error.what(), "bank 3 poisoned");
        EXPECT_EQ(error.status().toString(),
                  "DataCorruption: bank 3 poisoned");
    }
}

TEST(Status, CaptureHelperReturnsOkWhenNothingThrows)
{
    const Status status = test_support::captureStatus([] {});
    EXPECT_TRUE(status.ok());
}

TEST(ErrorPaths, InvalidTraceIsCatchable)
{
    OpSequence seq = buildHAdd(TraceParams{});
    seq.ops[0].limbs = 0;
    EXPECT_ANAHEIM_ERROR(checkTrace(seq), InvalidArgument, "zero limbs");
    // The caller survives and can validate a repaired trace.
    EXPECT_NO_THROW(checkTrace(buildHAdd(TraceParams{})));
}

TEST(ErrorPaths, PrimeGenerationExhaustionIsCatchable)
{
    // 2N = 2^21 exceeds the 10-bit candidate range: no prime can
    // satisfy q == 1 (mod 2N), so the search range is exhausted.
    EXPECT_ANAHEIM_ERROR(generateNttPrimes(1 << 20, 10, 1),
                         ResourceExhausted, "could not find");
    // Out-of-range bit widths are rejected as caller error.
    EXPECT_ANAHEIM_ERROR(generateNttPrimes(1 << 10, 60, 1),
                         InvalidArgument, "bit width");
    // A feasible request still succeeds afterwards.
    EXPECT_EQ(generateNttPrimes(8, 30, 2).size(), 2u);
}

} // namespace
} // namespace anaheim
