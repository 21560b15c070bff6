/**
 * @file
 * Kernel-backend dispatch: resolves which KernelOps table the process
 * uses, from (in priority order) the programmatic override set by
 * setBackend(), the ANAHEIM_NTT_BACKEND environment variable, and
 * CPUID. The resolution is cached; tests flip it with
 * setBackend()/resetBackend().
 */

#include "math/kernels.h"

#include <atomic>
#include <cstdlib>

#include "common/logging.h"
#include "math/kernels/backends.h"

namespace anaheim {
namespace kernels {

namespace {

/** Programmatic override; kNoOverride when dispatch follows env+CPUID. */
constexpr int kNoOverride = -1;
std::atomic<int> gOverride{kNoOverride};

/** Resolve ANAHEIM_NTT_BACKEND + CPUID once; Reference when the
 *  variable names the oracle. */
Backend
envResolvedBackend()
{
    static const Backend resolved = [] {
        if (const char *env = std::getenv("ANAHEIM_NTT_BACKEND");
            env != nullptr && env[0] != '\0') {
            const auto parsed = backendFromName(env);
            if (!parsed) {
                ANAHEIM_WARN("ANAHEIM_NTT_BACKEND=", env,
                             " is not a backend name (want reference/"
                             "scalar/avx2/avx512/avx512ifma); using "
                             "auto dispatch");
            } else if (!cpuSupports(*parsed)) {
                ANAHEIM_WARN("ANAHEIM_NTT_BACKEND=", env,
                             " is not compiled in or not supported by "
                             "this CPU; using auto dispatch");
            } else {
                return *parsed;
            }
        }
#ifdef ANAHEIM_HAVE_AVX512IFMA
        if (cpuSupports(Backend::Avx512Ifma))
            return Backend::Avx512Ifma;
#endif
#ifdef ANAHEIM_HAVE_AVX512
        if (cpuSupports(Backend::Avx512))
            return Backend::Avx512;
#endif
#ifdef ANAHEIM_HAVE_AVX2
        if (cpuSupports(Backend::Avx2))
            return Backend::Avx2;
#endif
        return Backend::Scalar;
    }();
    return resolved;
}

const KernelOps &
opsFor(Backend b)
{
    switch (b) {
#ifdef ANAHEIM_HAVE_AVX512IFMA
    case Backend::Avx512Ifma:
        return avx512IfmaOps();
#endif
#ifdef ANAHEIM_HAVE_AVX512
    case Backend::Avx512:
        return avx512Ops();
#endif
#ifdef ANAHEIM_HAVE_AVX2
    case Backend::Avx2:
        return avx2Ops();
#endif
    default:
        // Reference has no element-wise table of its own: the oracle
        // only replaces the NTT transforms (NttTable dispatches those
        // via nttReferenceForced()); everything else runs scalar.
        return scalarOps();
    }
}

} // namespace

const KernelOps &
active()
{
    return opsFor(activeBackend());
}

std::vector<const KernelOps *>
compiledBackends()
{
    std::vector<const KernelOps *> list{&scalarOps()};
#ifdef ANAHEIM_HAVE_AVX2
    list.push_back(&avx2Ops());
#endif
#ifdef ANAHEIM_HAVE_AVX512
    list.push_back(&avx512Ops());
#endif
#ifdef ANAHEIM_HAVE_AVX512IFMA
    list.push_back(&avx512IfmaOps());
#endif
    return list;
}

bool
cpuSupports(Backend b)
{
    switch (b) {
    case Backend::Reference:
    case Backend::Scalar:
        return true;
    case Backend::Avx2:
#ifdef ANAHEIM_HAVE_AVX2
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    case Backend::Avx512:
#ifdef ANAHEIM_HAVE_AVX512
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512dq") != 0;
#else
        return false;
#endif
    case Backend::Avx512Ifma:
#ifdef ANAHEIM_HAVE_AVX512IFMA
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512dq") != 0 &&
               __builtin_cpu_supports("avx512ifma") != 0;
#else
        return false;
#endif
    }
    return false;
}

bool
setBackend(Backend b)
{
    if (!cpuSupports(b))
        return false;
    gOverride.store(static_cast<int>(b), std::memory_order_release);
    return true;
}

void
resetBackend()
{
    gOverride.store(kNoOverride, std::memory_order_release);
}

Backend
activeBackend()
{
    const int ov = gOverride.load(std::memory_order_acquire);
    if (ov != kNoOverride)
        return static_cast<Backend>(ov);
    return envResolvedBackend();
}

bool
nttReferenceForced()
{
    return activeBackend() == Backend::Reference;
}

const char *
backendName(Backend b)
{
    switch (b) {
    case Backend::Reference:
        return "reference";
    case Backend::Scalar:
        return "scalar";
    case Backend::Avx2:
        return "avx2";
    case Backend::Avx512:
        return "avx512";
    case Backend::Avx512Ifma:
        return "avx512ifma";
    }
    return "unknown";
}

std::optional<Backend>
backendFromName(std::string_view name)
{
    if (name == "reference")
        return Backend::Reference;
    if (name == "scalar")
        return Backend::Scalar;
    if (name == "avx2")
        return Backend::Avx2;
    if (name == "avx512")
        return Backend::Avx512;
    if (name == "avx512ifma")
        return Backend::Avx512Ifma;
    return std::nullopt;
}

void
nttForwardLazy(const NttView &v, uint64_t *data)
{
    const KernelOps &ops = active();
    if (v.n < ops.minDegree) {
        scalarOps().nttForwardLazy(v, data);
        return;
    }
    ops.nttForwardLazy(v, data);
}

void
nttInverseLazy(const NttView &v, uint64_t *data)
{
    const KernelOps &ops = active();
    if (v.n < ops.minDegree) {
        scalarOps().nttInverseLazy(v, data);
        return;
    }
    ops.nttInverseLazy(v, data);
}

} // namespace kernels
} // namespace anaheim
