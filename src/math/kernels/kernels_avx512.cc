/**
 * @file
 * AVX-512 kernel backend: eight 64-bit lanes per op (avx512_policy.h).
 * Requires F (lane arithmetic, permutex2var) and DQ (vpmullq); compiled
 * only when the toolchain supports both (ANAHEIM_HAVE_AVX512), executed
 * only when CPUID reports them.
 */

#ifdef ANAHEIM_HAVE_AVX512

#include "math/kernels/avx512_policy.h"
#include "math/kernels/backends.h"
#include "math/kernels/kernel_impl.h"

namespace anaheim {
namespace kernels {

const KernelOps &
avx512Ops()
{
    static const KernelOps ops =
        Kernels<Avx512Policy>::ops("avx512", Backend::Avx512);
    return ops;
}

} // namespace kernels
} // namespace anaheim

#endif // ANAHEIM_HAVE_AVX512
