/**
 * @file
 * Negacyclic number-theoretic transform (NTT) over Z_q[X]/(X^N + 1).
 *
 * The forward transform uses Cooley–Tukey decimation-in-time butterflies
 * with precomputed bit-reversed powers of the 2N-th root psi; the inverse
 * uses Gentleman–Sande with the inverse powers and the final 1/N scaling
 * folded in. Complexity N/2 log N butterflies per limb, matching the
 * FFT-based cost model the paper assumes (0.5 * N log N multiplies).
 *
 * Two butterfly implementations coexist (DESIGN.md §11):
 *
 * - The **Harvey lazy-reduction kernels** (default for q < 2^59): every
 *   twiddle carries a precomputed Shoup companion, so a butterfly costs
 *   one mulhi + two multiplies instead of a 128-bit product and a
 *   hardware division. Intermediate values are kept only partially
 *   reduced (< 4q forward, < 2q inverse) and a single final pass
 *   normalizes to [0, q), folding in N^-1 on the inverse path via a
 *   prepared operand.
 * - The **reference kernels** (`forwardReference`/`inverseReference`):
 *   the original fully-reduced mulMod loops, kept compiled as the
 *   bitwise-identity oracle. Setting `ANAHEIM_NTT_BACKEND=reference`
 *   forces every transform through them; they are also the automatic
 *   fallback for q >= 2^59, where the lazy < 4q invariant would
 *   approach the word boundary.
 *
 * Both paths produce bit-identical outputs in [0, q).
 */

#ifndef ANAHEIM_MATH_NTT_H
#define ANAHEIM_MATH_NTT_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "kernels.h"
#include "modarith.h"

namespace anaheim {

/**
 * Precomputed NTT tables for one prime and one ring degree.
 *
 * Instances are immutable after construction and safely shareable.
 */
class NttTable
{
  public:
    /** Largest modulus the lazy kernels accept: with q < 2^59 the < 4q
     *  forward invariant stays below 2^61, far from 64-bit overflow. */
    static constexpr uint64_t kLazyModulusBound = uint64_t{1} << 59;

    /**
     * @param q Prime with q == 1 (mod 2N).
     * @param n Ring degree, a power of two.
     */
    NttTable(uint64_t q, size_t n);

    /**
     * Process-wide cache of tables keyed by (q, n). Contexts, tests and
     * benches frequently rebuild bases over the same primes; the cache
     * makes repeated construction (twiddle powers, primitive-root
     * search, eval-exponent probing) a map lookup. Thread-safe, and a
     * table is built at most once per key even under concurrent lookups:
     * the first caller publishes a future and constructs outside the
     * cache lock, later callers wait on the future. Growth is bounded
     * (LRU eviction beyond kSharedCacheCapacity entries; outstanding
     * shared_ptrs keep evicted tables alive).
     */
    static std::shared_ptr<const NttTable> shared(uint64_t q, size_t n);

    /** Most (q, n) entries shared() retains; bench sweeps that touch
     *  more primes than this recycle the least recently used slots. */
    static constexpr size_t kSharedCacheCapacity = 64;

    /** Drop every cached shared() entry (eviction hook for sweeps and
     *  leak-checking tests). In-flight constructions are unaffected. */
    static void clearShared();

    /** Number of entries currently held by the shared() cache. */
    static size_t sharedCacheSize();

    uint64_t modulus() const { return q_; }
    size_t degree() const { return n_; }

    /** Barrett reducer for this table's prime, for element-wise kernels
     *  that need full products of two variable operands. */
    const Barrett &barrett() const { return barrett_; }

    /** True when forward()/inverse() dispatch to the lazy kernels:
     *  requires q < kLazyModulusBound and the reference oracle not being
     *  forced (ANAHEIM_NTT_BACKEND / kernels::setBackend). Evaluated
     *  per call so programmatic backend overrides take effect on
     *  existing tables. */
    bool
    usesLazyKernels() const
    {
        return lazyCapable_ && !kernels::nttReferenceForced();
    }

    /** Raw-pointer views of the twiddle tables for the kernel backends.
     *  Valid for the lifetime of this table. */
    kernels::NttView forwardView() const;
    kernels::NttView inverseView() const;

    /** In-place forward negacyclic NTT (natural order in and out). */
    void forward(uint64_t *data) const;

    /** In-place inverse negacyclic NTT. */
    void inverse(uint64_t *data) const;

    /** Reference (fully-reduced mulMod) kernels: the identity oracle. */
    void forwardReference(uint64_t *data) const;
    void inverseReference(uint64_t *data) const;

    /** Harvey lazy-reduction kernels; require q < kLazyModulusBound. */
    void forwardLazy(uint64_t *data) const;
    void inverseLazy(uint64_t *data) const;

    /** Convenience overloads on vectors (size must equal N); generic
     *  over the allocator so cache-line-aligned CoeffVector limbs and
     *  plain std::vector test data both work. */
    template <class Alloc>
    void
    forward(std::vector<uint64_t, Alloc> &data) const
    {
        ANAHEIM_ASSERT(data.size() == n_, "NTT size mismatch");
        forward(data.data());
    }
    template <class Alloc>
    void
    inverse(std::vector<uint64_t, Alloc> &data) const
    {
        ANAHEIM_ASSERT(data.size() == n_, "NTT size mismatch");
        inverse(data.data());
    }

    /**
     * Odd exponent e_j such that output slot j of forward() holds the
     * evaluation of the input polynomial at psi^{e_j}. Computed
     * numerically at construction; it only depends on the transform
     * structure (identical across primes), and is what eval-domain
     * automorphism needs to permute slots exactly.
     */
    const std::vector<uint32_t> &evalExponents() const
    {
        return evalExponents_;
    }

    /** Inverse of evalExponents(): slot index evaluating at psi^e, or -1
     *  for even e (which never occurs as an evaluation point). */
    const std::vector<int32_t> &slotOfExponent() const
    {
        return slotOfExponent_;
    }

  private:
    uint64_t q_;
    size_t n_;
    unsigned logN_;
    /** psi^bitrev(i): forward twiddles. */
    std::vector<uint64_t> fwdTwiddles_;
    /** psi^-bitrev(i): inverse twiddles. */
    std::vector<uint64_t> invTwiddles_;
    /** floor(twiddle * 2^64 / q): Shoup companions, same indexing. */
    std::vector<uint64_t> fwdTwiddlesShoup_;
    std::vector<uint64_t> invTwiddlesShoup_;
    /** N^-1 mod q. */
    uint64_t nInv_;
    /** floor(nInv * 2^64 / q). */
    uint64_t nInvShoup_;
    /** invTwiddles_[1] * nInv mod q: the final inverse-stage twiddle
     *  with 1/N folded in, so the blocked kernels emit canonical values
     *  without a separate normalization pass. */
    uint64_t lastW_;
    uint64_t lastWShoup_;
    Barrett barrett_;
    bool lazyCapable_;
    std::vector<uint32_t> evalExponents_;
    std::vector<int32_t> slotOfExponent_;
};

} // namespace anaheim

#endif // ANAHEIM_MATH_NTT_H
