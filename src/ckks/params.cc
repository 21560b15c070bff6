#include "params.h"

#include "common/logging.h"

namespace anaheim {

void
CkksParams::validate() const
{
    ANAHEIM_ASSERT((n & (n - 1)) == 0 && n >= 8, "N must be a power of two");
    ANAHEIM_ASSERT(levels >= 1, "need at least one prime");
    ANAHEIM_ASSERT(alpha >= 1 && alpha <= levels, "bad alpha");
    ANAHEIM_ASSERT(logScale >= 20 && logScale <= 55, "bad logScale");
    ANAHEIM_ASSERT(firstModulusBits > logScale,
                   "first modulus must exceed the scale");
    ANAHEIM_ASSERT(firstModulusBits <= 59, "prime width beyond 59 bits");
}

CkksParams
CkksParams::testParams(size_t n, size_t levels, size_t alpha)
{
    CkksParams params;
    params.n = n;
    params.levels = levels;
    params.alpha = alpha;
    params.logScale = 40;
    params.firstModulusBits = 52;
    params.validate();
    return params;
}

CkksParams
CkksParams::bootstrapParams(size_t n)
{
    CkksParams params;
    params.n = n;
    params.levels = 17;
    params.alpha = 3;
    // The q0/Delta ratio (2^10) balances the scaled-sine linearization
    // error against keyswitch-noise amplification through the sine's
    // slope; the sparse secret (H_s = 2^5 / 2 in Table IV terms) bounds
    // the modulus multiple K after ModRaise.
    params.logScale = 48;
    params.firstModulusBits = 58;
    params.hammingWeight = 16;
    params.validate();
    return params;
}

} // namespace anaheim
