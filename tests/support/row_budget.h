/**
 * @file
 * A trace sized against the PIM row budget, for the tests of the one
 * capacity model (PimMemoryPlanner) and of the paths that act on its
 * verdict: the quarantine step of RunContext and the service
 * estimator's re-pricing.
 */

#ifndef ANAHEIM_TESTS_SUPPORT_ROW_BUDGET_H
#define ANAHEIM_TESTS_SUPPORT_ROW_BUDGET_H

#include "trace/builders.h"

namespace anaheim::test_support {

/** Rows per bank of the A100 (80 GB over 2,560 banks of 1 KB rows). */
constexpr size_t kA100RowBudget = 30517;

/**
 * One HADD at N = 2^16 over 46,000 limbs. On the A100 near-bank device
 * (5 die groups of 512 banks, 8 column groups) its 184,000 read and
 * 92,000 written limbs pack into 4,600 + 2,300 row groups per bank. A
 * healthy bank holds a limb in 16 chunks, a row group of 4 rows, so the
 * operands take 27,600 rows: 90% of the budget. One dead bank stripes
 * each limb over the 511 others (17 chunks per bank), a row group takes
 * 5 rows, and the same operands need 34,500 rows, past the budget.
 */
inline OpSequence
nearRowBudgetHAdd()
{
    TraceParams params;
    params.level = 46000;
    OpSequence seq = buildHAdd(params);
    seq.name = "near_row_budget";
    return seq;
}

} // namespace anaheim::test_support

#endif // ANAHEIM_TESTS_SUPPORT_ROW_BUDGET_H
