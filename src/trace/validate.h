/**
 * @file
 * Structural validation of kernel traces. The framework and the
 * builders' tests run traces through this pass to catch malformed
 * sequences (zero-sized ops, element-wise kernels with no operands,
 * PIM-eligible compute kernels) before they silently skew the model.
 */

#ifndef ANAHEIM_TRACE_VALIDATE_H
#define ANAHEIM_TRACE_VALIDATE_H

#include <string>
#include <vector>

#include "kernel.h"

namespace anaheim {

/** One structural problem found in a trace. */
struct TraceIssue {
    size_t opIndex;
    std::string description;
};

/** Collect every structural problem in the sequence (empty == valid).*/
std::vector<TraceIssue> validateTrace(const OpSequence &seq);

/** Throw AnaheimError(InvalidArgument) naming the first problem (and
 *  the total count); use at trace-construction time. Callers may catch
 *  and recover. */
void checkTrace(const OpSequence &seq);

} // namespace anaheim

#endif // ANAHEIM_TRACE_VALIDATE_H
