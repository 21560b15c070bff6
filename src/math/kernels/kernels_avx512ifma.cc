/**
 * @file
 * AVX-512 IFMA kernel backend: eight 52-bit multiply-add lanes
 * (vpmadd52luq / vpmadd52huq) where the modulus fits them, the
 * AVX-512F/DQ bodies of the avx512 backend where it does not. Compiled
 * only when the toolchain accepts -mavx512ifma
 * (ANAHEIM_HAVE_AVX512IFMA), executed only when CPUID reports
 * avx512f, avx512dq and avx512ifma.
 *
 * The ranges are contracts, checked per call:
 *
 * - Transforms need q < 2^49: forward intermediates reach 8q, and every
 *   multiplied operand must be below 2^52.
 * - Element-wise Shoup/Barrett products need q < 2^50 (remainders in
 *   [0, 3q) stay below 2^52) and inputs below 2^52. Inputs canonical
 *   mod q satisfy that; mulShoupAcc's src is bounded by its inBound
 *   argument instead, since BConv feeds it residues of other primes.
 *
 * Every result is a canonical residue, as on every backend, so a call
 * gives the same bits whichever body runs it.
 */

#ifdef ANAHEIM_HAVE_AVX512IFMA

#include <algorithm>

#include "math/kernels/avx512_policy.h"
#include "math/kernels/backends.h"
#include "math/kernels/kernel_impl.h"

namespace anaheim {
namespace kernels {

namespace {

/** Transforms run on IFMA lanes below this modulus (8q < 2^52). */
constexpr uint64_t kNttBound = uint64_t{1} << 49;
/** Element-wise products run on IFMA lanes below this modulus. */
constexpr uint64_t kProductBound = uint64_t{1} << 50;
/** madd52 reads the low 52 bits of each operand. */
constexpr uint64_t kInputBound = uint64_t{1} << 52;

/**
 * The AVX-512F policy with the lazy Shoup step on IFMA lanes. The
 * 52-bit Shoup companion floor(w * 2^52 / q) is the table's
 * floor(w * 2^64 / q) >> 12 (floor of a floor), so the NTT tables need
 * no second copy. With a, w < 2^52 and w < q, writing w * 2^52 =
 * wPre52 * q + b (0 <= b < q) bounds a * w - floor(a * wPre52 / 2^52)
 * * q by q + a * b / 2^52 < 2q; the 52-bit wrap of the difference is
 * therefore the exact value.
 */
struct IfmaPolicy : Avx512Policy {
    static V shoupCompanion(V wPre) { return _mm512_srli_epi64(wPre, 12); }

    static V
    mulShoupLazy(V a, V w, V wPre, V wPre52, V q)
    {
        (void)wPre;
        const V zero = _mm512_setzero_si512();
        const V quot = _mm512_madd52hi_epu64(zero, a, wPre52);
        const V prod = _mm512_madd52lo_epu64(zero, a, w);
        return _mm512_and_si512(
            _mm512_sub_epi64(prod, _mm512_madd52lo_epu64(zero, quot, q)),
            set1(kInputBound - 1));
    }
};

using Ifma = Kernels<IfmaPolicy>;
using V = IfmaPolicy::V;

/**
 * Products an IFMA inner-product lane may sum before one reduction, for
 * q with s = bits(q) - 1 and a canonical carried-in partial sum:
 * (q - 1) + C (q - 1)^2 < 2^(s+1) + C 2^(2s+2) stays below the
 * 2^(52+s) that Reducer52 accepts when C <= 2^(50-s) - 1 — 7 terms at
 * q < 2^48, 3 at q < 2^49, 1 at q < 2^50. The cap of 2^11 keeps the
 * low accumulator (< 2^50 + C 2^52) inside 64 bits for small q.
 */
size_t
ifmaTermsPerReduce(unsigned s)
{
    return s >= 39 ? (size_t{1} << (50 - s)) - 1 : size_t{1} << 11;
}

/**
 * Reduction of a sum P = hi * 2^52 + lo < 2^(52+s) modulo q < 2^50 on
 * IFMA lanes, s = bits(q) - 1; lo may exceed 2^52 (its carry is folded
 * first). vmu is floor(2^(52+s) / q) = wideFactor() >> 12:
 * c1 = floor(P / 2^s) < 2^52, and madd52hi(c1, vmu) undershoots
 * floor(P / q) by at most 2, so the 52-bit remainder lies in [0, 3q)
 * and two csubs make it canonical.
 */
struct Reducer52 {
    explicit Reducer52(const Barrett &br)
        : vq(IfmaPolicy::set1(br.modulus())),
          v2q(IfmaPolicy::set1(2 * br.modulus())),
          vmu(IfmaPolicy::set1(br.wideFactor() >> 12)),
          s(br.shiftBits() - 1)
    {
    }

    V
    operator()(V hi, V lo) const
    {
        const V mask = IfmaPolicy::set1(kInputBound - 1);
        const V zero = _mm512_setzero_si512();
        hi = _mm512_add_epi64(hi, _mm512_srli_epi64(lo, 52));
        lo = _mm512_and_si512(lo, mask);
        const V c1 = _mm512_or_si512(IfmaPolicy::sll(hi, 52 - s),
                                     IfmaPolicy::srl(lo, s));
        const V qhat = _mm512_madd52hi_epu64(zero, c1, vmu);
        const V r = _mm512_and_si512(
            _mm512_sub_epi64(lo, _mm512_madd52lo_epu64(zero, qhat, vq)),
            mask);
        return IfmaPolicy::csub(IfmaPolicy::csub(r, v2q), vq);
    }

    V vq, v2q, vmu;
    unsigned s;
};

void
forwardLazy(const NttView &v, uint64_t *data)
{
    if (v.q < kNttBound)
        Ifma::forwardLazy(v, data);
    else
        avx512Ops().nttForwardLazy(v, data);
}

void
inverseLazy(const NttView &v, uint64_t *data)
{
    if (v.q < kNttBound)
        Ifma::inverseLazy(v, data);
    else
        avx512Ops().nttInverseLazy(v, data);
}

void
mulShoup(uint64_t *dst, const uint64_t *src, size_t n, uint64_t w,
         uint64_t wShoup, uint64_t q)
{
    if (q < kProductBound)
        Ifma::mulShoup(dst, src, n, w, wShoup, q);
    else
        avx512Ops().mulShoup(dst, src, n, w, wShoup, q);
}

void
mulShoupAcc(uint64_t *acc, const uint64_t *src, size_t n, uint64_t w,
            uint64_t wShoup, uint64_t q, uint64_t inBound)
{
    if (q < kProductBound && inBound <= kInputBound)
        Ifma::mulShoupAcc(acc, src, n, w, wShoup, q, inBound);
    else
        avx512Ops().mulShoupAcc(acc, src, n, w, wShoup, q, inBound);
}

void
subMulShoup(uint64_t *dst, const uint64_t *a, const uint64_t *b, size_t n,
            uint64_t w, uint64_t wShoup, uint64_t q)
{
    if (q < kProductBound)
        Ifma::subMulShoup(dst, a, b, n, w, wShoup, q);
    else
        avx512Ops().subMulShoup(dst, a, b, n, w, wShoup, q);
}

/** a * b mod q of canonical lanes: the 104-bit product as two 52-bit
 *  halves, one reduction. */
V
mulReduce(V a, V b, const Reducer52 &red)
{
    const V zero = _mm512_setzero_si512();
    return red(_mm512_madd52hi_epu64(zero, a, b),
               _mm512_madd52lo_epu64(zero, a, b));
}

void
mulBarrett(uint64_t *dst, const uint64_t *a, const uint64_t *b, size_t n,
           const Barrett &br)
{
    if (br.modulus() >= kProductBound) {
        avx512Ops().mulBarrett(dst, a, b, n, br);
        return;
    }
    const Reducer52 red(br);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        IfmaPolicy::store(dst + i, mulReduce(IfmaPolicy::load(a + i),
                                             IfmaPolicy::load(b + i), red));
    }
    for (; i < n; ++i)
        dst[i] = br.mulMod(a[i], b[i]);
}

void
macBarrett(uint64_t *acc, const uint64_t *a, const uint64_t *b, size_t n,
           const Barrett &br)
{
    if (br.modulus() >= kProductBound) {
        avx512Ops().macBarrett(acc, a, b, n, br);
        return;
    }
    const Reducer52 red(br);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const V p = mulReduce(IfmaPolicy::load(a + i),
                              IfmaPolicy::load(b + i), red);
        IfmaPolicy::store(
            acc + i, IfmaPolicy::csub(
                         _mm512_add_epi64(IfmaPolicy::load(acc + i), p),
                         red.vq));
    }
    for (; i < n; ++i)
        acc[i] = addMod(acc[i], br.mulMod(a[i], b[i]), br.modulus());
}

/** The KeyMult inner product on 52-bit lanes: each product adds its low
 *  and high 52-bit halves into two accumulators, and each chunk of
 *  ifmaTermsPerReduce() terms is reduced once. */
void
dualInnerProduct(uint64_t *acc0, uint64_t *acc1, const uint64_t *const *a,
                 const uint64_t *const *b0, const uint64_t *const *b1,
                 size_t terms, size_t n, const Barrett &br)
{
    if (br.modulus() >= kProductBound) {
        avx512Ops().dualInnerProduct(acc0, acc1, a, b0, b1, terms, n, br);
        return;
    }
    const Reducer52 red(br);
    const size_t chunk = ifmaTermsPerReduce(red.s);
    const V zero = _mm512_setzero_si512();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        V lo0 = IfmaPolicy::load(acc0 + i);
        V lo1 = IfmaPolicy::load(acc1 + i);
        for (size_t j0 = 0; j0 < terms; j0 += chunk) {
            const size_t j1 = std::min(terms, j0 + chunk);
            V hi0 = zero;
            V hi1 = zero;
            for (size_t j = j0; j < j1; ++j) {
                const V x = IfmaPolicy::load(a[j] + i);
                const V y0 = IfmaPolicy::load(b0[j] + i);
                const V y1 = IfmaPolicy::load(b1[j] + i);
                lo0 = _mm512_madd52lo_epu64(lo0, x, y0);
                hi0 = _mm512_madd52hi_epu64(hi0, x, y0);
                lo1 = _mm512_madd52lo_epu64(lo1, x, y1);
                hi1 = _mm512_madd52hi_epu64(hi1, x, y1);
            }
            lo0 = red(hi0, lo0);
            lo1 = red(hi1, lo1);
        }
        IfmaPolicy::store(acc0 + i, lo0);
        IfmaPolicy::store(acc1 + i, lo1);
    }
    dualInnerProductScalar(acc0, acc1, a, b0, b1, terms, i, n, br);
}

} // namespace

const KernelOps &
avx512IfmaOps()
{
    static const KernelOps ops = [] {
        KernelOps k = Ifma::ops("avx512ifma", Backend::Avx512Ifma);
        k.nttForwardLazy = &forwardLazy;
        k.nttInverseLazy = &inverseLazy;
        k.mulShoup = &mulShoup;
        k.mulShoupAcc = &mulShoupAcc;
        k.subMulShoup = &subMulShoup;
        k.mulBarrett = &mulBarrett;
        k.macBarrett = &macBarrett;
        k.dualInnerProduct = &dualInnerProduct;
        return k;
    }();
    return ops;
}

} // namespace kernels
} // namespace anaheim

#endif // ANAHEIM_HAVE_AVX512IFMA
