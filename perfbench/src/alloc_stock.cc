/**
 * @file
 * The end-to-end binary's allocation tally: nothing is replaced, so
 * timed runs use the toolchain's own operator new.
 */

#include "bench.h"

namespace perfbench {

bool
allocCountingAvailable()
{
    return false;
}

void setAllocCounting(bool) {}

AllocTally
allocTally()
{
    return {};
}

} // namespace perfbench
