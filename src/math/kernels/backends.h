/**
 * @file
 * Internal registry of compiled kernel backends. Each accessor is
 * defined in its own translation unit, compiled with the matching -m
 * flags; the ANAHEIM_HAVE_* macros (set target-wide by CMake) tell
 * dispatch.cc which ones exist in this binary.
 */

#ifndef ANAHEIM_MATH_KERNELS_BACKENDS_H
#define ANAHEIM_MATH_KERNELS_BACKENDS_H

#include "math/kernels.h"

namespace anaheim {
namespace kernels {

#ifdef ANAHEIM_HAVE_AVX2
const KernelOps &avx2Ops();
#endif
#ifdef ANAHEIM_HAVE_AVX512
const KernelOps &avx512Ops();
#endif
#ifdef ANAHEIM_HAVE_AVX512IFMA
const KernelOps &avx512IfmaOps();
#endif

} // namespace kernels
} // namespace anaheim

#endif // ANAHEIM_MATH_KERNELS_BACKENDS_H
