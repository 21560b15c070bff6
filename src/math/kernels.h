/**
 * @file
 * Kernel-backend interface for the polynomial hot loops (DESIGN.md §13).
 *
 * The Harvey/Shoup lazy-reduction butterflies and the prepared-operand
 * element-wise paths exist in several interchangeable implementations —
 * scalar, AVX2, AVX-512F/DQ and AVX-512 IFMA — following the
 * one-interface/many-backends pattern of exafmm's Kernel layer. Each
 * backend is a table of function pointers (KernelOps) compiled in its
 * own translation unit with the matching -m flags; dispatch picks the
 * widest backend the CPU supports at runtime (CPUID), overridable with
 * the ANAHEIM_NTT_BACKEND environment variable or programmatically for
 * tests.
 *
 * All backends are exact: outputs are canonical residues in [0, q), so
 * every backend is bitwise identical to the division-based reference
 * kernels (which stay compiled in NttTable as the oracle). The
 * backend-equivalence matrix test pins this across every context-grade
 * prime and degree.
 */

#ifndef ANAHEIM_MATH_KERNELS_H
#define ANAHEIM_MATH_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace anaheim {

class Barrett;

namespace kernels {

/**
 * Everything a transform kernel needs from an NttTable, as raw pointers:
 * the twiddle/Shoup-companion tables for one direction plus the folded
 * inverse constants. POD view; lifetime owned by the table.
 */
struct NttView {
    uint64_t q = 0;
    size_t n = 0;
    const uint64_t *tw = nullptr;      ///< psi^bitrev(i) (fwd or inv).
    const uint64_t *twShoup = nullptr; ///< floor(tw * 2^64 / q).
    uint64_t nInv = 0;                 ///< N^-1 mod q (inverse only).
    uint64_t nInvShoup = 0;
    uint64_t lastW = 0;      ///< invTw[1] * nInv mod q: the final-stage
                             ///< twiddle with 1/N folded in (inverse).
    uint64_t lastWShoup = 0;
};

/** High bit of a permutation-table entry: negate the gathered value
 *  (the negacyclic wrap of a coefficient-domain automorphism). The low
 *  bits are the source index. */
inline constexpr uint64_t kPermuteNegBit = uint64_t{1} << 63;
/** Mask extracting the source index from a permutation-table entry. */
inline constexpr uint64_t kPermuteIndexMask = kPermuteNegBit - 1;

/** Which backend a KernelOps table implements. */
enum class Backend {
    Reference, ///< division-based oracle (NttTable's own kernels)
    Scalar,    ///< Harvey/Shoup lazy kernels, one lane
    Avx2,      ///< 4-lane AVX2
    Avx512,    ///< 8-lane AVX-512F/DQ
    Avx512Ifma, ///< 8-lane AVX-512 IFMA (52-bit multiply-add) where the
                ///< modulus fits, AVX-512F/DQ bodies where it does not
};

/**
 * One kernel backend: lazy NTT transforms plus the element-wise paths.
 *
 * Transform preconditions match the scalar lazy kernels: inputs
 * canonical in [0, q), q < NttTable::kLazyModulusBound, outputs
 * canonical. Element-wise entry points accept any length (vector
 * backends process the tail scalar) and arbitrary canonical inputs; the
 * Shoup paths require w < q and the Barrett paths q < 2^62.
 *
 * Every entry point, on every backend, returns canonical residues, so
 * the backends are interchangeable bit for bit. The IFMA backend keeps
 * that contract by range: its 52-bit lanes run a transform only for
 * q < 2^49 (forward intermediates reach 8q < 2^52) and an element-wise
 * product only for q < 2^50 with every multiplied input below 2^52;
 * any other call runs the AVX-512F/DQ body. Inputs are canonical mod q
 * everywhere except mulShoupAcc's src, whose bound the caller states.
 */
struct KernelOps {
    const char *name;
    Backend backend;
    size_t minDegree; ///< smallest n the transform kernels accept;
                      ///< dispatch falls back to scalar below it

    void (*nttForwardLazy)(const NttView &v, uint64_t *data);
    void (*nttInverseLazy)(const NttView &v, uint64_t *data);

    /** dst[i] = src[i] * w mod q (prepared operand; dst may alias src). */
    void (*mulShoup)(uint64_t *dst, const uint64_t *src, size_t n,
                     uint64_t w, uint64_t wShoup, uint64_t q);
    /** acc[i] = (acc[i] + src[i] * w) mod q — the BConv inner product.
     *  src need not be reduced mod q: every src[i] < inBound. BConv
     *  passes the source prime, which may exceed q. */
    void (*mulShoupAcc)(uint64_t *acc, const uint64_t *src, size_t n,
                        uint64_t w, uint64_t wShoup, uint64_t q,
                        uint64_t inBound);
    /** dst[i] = (a[i] - b[i]) * w mod q — the ModDown/rescale fold. */
    void (*subMulShoup)(uint64_t *dst, const uint64_t *a,
                        const uint64_t *b, size_t n, uint64_t w,
                        uint64_t wShoup, uint64_t q);
    /** dst[i] = (a[i] + b[i]) mod q. */
    void (*addMod)(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                   size_t n, uint64_t q);
    /** dst[i] = (a[i] - b[i]) mod q. */
    void (*subMod)(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                   size_t n, uint64_t q);
    /** dst[i] = -src[i] mod q. */
    void (*negMod)(uint64_t *dst, const uint64_t *src, size_t n,
                   uint64_t q);
    /** dst[i] = a[i] * b[i] mod q via the Barrett constant. */
    void (*mulBarrett)(uint64_t *dst, const uint64_t *a,
                       const uint64_t *b, size_t n, const Barrett &br);
    /** acc[i] = (acc[i] + a[i] * b[i]) mod q. */
    void (*macBarrett)(uint64_t *acc, const uint64_t *a,
                       const uint64_t *b, size_t n, const Barrett &br);
    /** The KeyMult inner product over `terms` digits:
     *  acc0[i] = (acc0[i] + sum_j a[j][i] * b0[j][i]) mod q and
     *  acc1[i] = (acc1[i] + sum_j a[j][i] * b1[j][i]) mod q. Each a[j]
     *  is read once and the sums are reduced once per chunk of terms
     *  (the chunk is the largest the backend's accumulators hold; see
     *  wideTermsPerReduce), not once per product. */
    void (*dualInnerProduct)(uint64_t *acc0, uint64_t *acc1,
                             const uint64_t *const *a,
                             const uint64_t *const *b0,
                             const uint64_t *const *b1, size_t terms,
                             size_t n, const Barrett &br);
    /** Index permutation with optional negation — the automorphism /
     *  monomial-shift inner loop. dst[i] = src[idx[i] & kPermuteIndexMask],
     *  negated mod q when idx[i] has kPermuteNegBit set. src holds
     *  canonical residues; dst must not alias src. Vector backends run
     *  this as a 64-bit gather plus a sign-select blend. */
    void (*permuteNeg)(uint64_t *dst, const uint64_t *src,
                       const uint64_t *idx, size_t n, uint64_t q);
};

/**
 * The active backend for this process. Never Backend::Reference — when
 * the reference kernels are forced (see nttReferenceForced()), the
 * transforms route through NttTable's oracle and the element-wise paths
 * use the scalar KernelOps.
 */
const KernelOps &active();

/** The always-compiled scalar backend. */
const KernelOps &scalarOps();

/** Every backend compiled into this binary, scalar first. Compiled is
 *  not the same as runnable: a backend may be absent from this list at
 *  build time (no compiler support / ANAHEIM_ENABLE_SIMD=OFF) or
 *  compiled but rejected at runtime by CPUID. */
std::vector<const KernelOps *> compiledBackends();

/** True when this CPU can execute the given backend. Reference and
 *  Scalar are always runnable. */
bool cpuSupports(Backend b);

/**
 * Programmatic backend override, primarily for tests and benches.
 * Returns false (and leaves dispatch untouched) if the backend is not
 * compiled in or the CPU cannot run it. Selecting Backend::Reference
 * forces every NttTable transform through the oracle kernels, exactly
 * like ANAHEIM_NTT_BACKEND=reference.
 */
bool setBackend(Backend b);

/** Drop any programmatic override and re-resolve from the environment
 *  (ANAHEIM_NTT_BACKEND) and CPUID. */
void resetBackend();

/** The backend dispatch currently resolves to (Reference when the
 *  oracle is forced). */
Backend activeBackend();

/** True when NTT dispatch must use the reference kernels, i.e.
 *  ANAHEIM_NTT_BACKEND or setBackend selected "reference". */
bool nttReferenceForced();

/** Canonical lowercase name ("reference", "scalar", "avx2", "avx512",
 *  "avx512ifma"). */
const char *backendName(Backend b);

/** Parse a backend name as accepted by ANAHEIM_NTT_BACKEND. */
std::optional<Backend> backendFromName(std::string_view name);

/** Lazy forward/inverse NTT through the active backend, falling back to
 *  the scalar kernels when n < the active backend's minDegree. */
void nttForwardLazy(const NttView &v, uint64_t *data);
void nttInverseLazy(const NttView &v, uint64_t *data);

} // namespace kernels
} // namespace anaheim

#endif // ANAHEIM_MATH_KERNELS_H
