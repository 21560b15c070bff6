/**
 * @file
 * AVX2 kernel backend: four 64-bit lanes per op. Compiled only when the
 * toolchain supports -mavx2 (ANAHEIM_HAVE_AVX2); executed only when
 * CPUID reports AVX2 at runtime.
 *
 * AVX2 has no 64-bit vector multiply or unsigned compare, so the policy
 * builds them from 32x32->64 products (vpmuludq) and sign-flipped
 * signed compares. The sub-width butterfly stages use 128-bit lane
 * permutes (t == 2) and 64-bit unpacks (t == 1); the unpack pair visits
 * blocks in the order [0, 2, 1, 3], so the matching twiddle expansion
 * applies the same permutation (vpermq 0xD8) to keep lanes aligned.
 */

#ifdef ANAHEIM_HAVE_AVX2

#include <immintrin.h>

#include "math/kernels/backends.h"
#include "math/kernels/kernel_impl.h"

namespace anaheim {
namespace kernels {

namespace {

struct Avx2Policy {
    using V = __m256i;
    static constexpr size_t kWidth = 4;

    static V
    load(const uint64_t *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }
    static void
    store(uint64_t *p, V v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }
    static V
    set1(uint64_t x)
    {
        return _mm256_set1_epi64x(static_cast<long long>(x));
    }
    static V add(V a, V b) { return _mm256_add_epi64(a, b); }
    static V sub(V a, V b) { return _mm256_sub_epi64(a, b); }
    static V or_(V a, V b) { return _mm256_or_si256(a, b); }
    static V and_(V a, V b) { return _mm256_and_si256(a, b); }

    /** dst lane i = base[idx lane i] (64-bit indices, 8-byte scale). */
    static V
    gather(const uint64_t *base, V idx)
    {
        return _mm256_i64gather_epi64(
            reinterpret_cast<const long long *>(base), idx, 8);
    }

    /** Per-lane select: b where sel's bit 63 is set, else a. */
    static V
    blendHighBit(V sel, V a, V b)
    {
        const V m = _mm256_cmpgt_epi64(_mm256_setzero_si256(), sel);
        return _mm256_blendv_epi8(a, b, m);
    }
    static V
    srl(V x, unsigned s)
    {
        return _mm256_srl_epi64(x, _mm_cvtsi32_si128(static_cast<int>(s)));
    }
    static V
    sll(V x, unsigned s)
    {
        return _mm256_sll_epi64(x, _mm_cvtsi32_si128(static_cast<int>(s)));
    }

    /** Low 64 bits of the lane-wise product. */
    static V
    mullo(V a, V b)
    {
        const V lo = _mm256_mul_epu32(a, b); // alo * blo, full 64 bits
        const V cross =
            _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                             _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
        return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
    }

    /** High 64 bits of the lane-wise product (schoolbook, 4 vpmuludq). */
    static V
    mulhi(V a, V b)
    {
        const V aHi = _mm256_srli_epi64(a, 32);
        const V bHi = _mm256_srli_epi64(b, 32);
        const V t0 = _mm256_mul_epu32(a, b);
        const V t1 = _mm256_mul_epu32(aHi, b);
        const V t2 = _mm256_mul_epu32(a, bHi);
        const V t3 = _mm256_mul_epu32(aHi, bHi);
        const V m32 = _mm256_set1_epi64x(0xffffffffLL);
        const V w = _mm256_add_epi64(t1, _mm256_srli_epi64(t0, 32));
        const V w1 = _mm256_add_epi64(_mm256_and_si256(w, m32), t2);
        return _mm256_add_epi64(
            t3, _mm256_add_epi64(_mm256_srli_epi64(w, 32),
                                 _mm256_srli_epi64(w1, 32)));
    }

    /** The Shoup step's companion: the high half of floor(w * 2^64 /
     *  q), hoisted out of the loops. */
    static V shoupCompanion(V wPre) { return _mm256_srli_epi64(wPre, 32); }

    /** a * w mod q in [0, 4q). The quotient is approximate: the high
     *  product without the low partial and without cross-term carries
     *  undershoots the exact one by at most 2 — covered by the kernel
     *  layer's 8q/4q lazy bounds. wc is shoupCompanion(wPre). */
    static V
    mulShoupLazy(V a, V w, V wPre, V wc, V q)
    {
        const V aHi = _mm256_srli_epi64(a, 32);
        const V t1 = _mm256_mul_epu32(aHi, wPre);
        const V t2 = _mm256_mul_epu32(a, wc);
        const V t3 = _mm256_mul_epu32(aHi, wc);
        const V quot = _mm256_add_epi64(
            t3, _mm256_add_epi64(_mm256_srli_epi64(t1, 32),
                                 _mm256_srli_epi64(t2, 32)));
        return _mm256_sub_epi64(mullo(a, w), mullo(quot, q));
    }

    /** 1 where sum < addend (unsigned): the carry out of sum = x +
     *  addend. */
    static V
    carry(V sum, V addend)
    {
        const V bias = _mm256_set1_epi64x(
            static_cast<long long>(0x8000000000000000ULL));
        return _mm256_srli_epi64(
            _mm256_cmpgt_epi64(_mm256_xor_si256(addend, bias),
                               _mm256_xor_si256(sum, bias)),
            63);
    }

    /** x >= m ? x - m : x, unsigned (values may exceed 2^63 in the
     *  Barrett path, so the signed compare gets a sign-flip bias). */
    static V
    csub(V x, V m)
    {
        const V bias = _mm256_set1_epi64x(
            static_cast<long long>(0x8000000000000000ULL));
        const V lt = _mm256_cmpgt_epi64(_mm256_xor_si256(m, bias),
                                        _mm256_xor_si256(x, bias));
        return _mm256_sub_epi64(x, _mm256_andnot_si256(lt, m));
    }

    /** Split the 2W-chunk (x0 = elems 0..3, x1 = 4..7) into u/v lanes
     *  of the half-width-T stage. T == 1 visits blocks as [0, 2, 1, 3]
     *  (unpack order); expandTwiddles<1> matches it. */
    template <int T>
    static void
    deinterleave(V x0, V x1, V &u, V &v)
    {
        if constexpr (T == 2) {
            u = _mm256_permute2x128_si256(x0, x1, 0x20);
            v = _mm256_permute2x128_si256(x0, x1, 0x31);
        } else {
            static_assert(T == 1, "unsupported half-width");
            u = _mm256_unpacklo_epi64(x0, x1);
            v = _mm256_unpackhi_epi64(x0, x1);
        }
    }

    template <int T>
    static V
    interleaveLo(V u, V v)
    {
        if constexpr (T == 2)
            return _mm256_permute2x128_si256(u, v, 0x20);
        else
            return _mm256_unpacklo_epi64(u, v);
    }

    template <int T>
    static V
    interleaveHi(V u, V v)
    {
        if constexpr (T == 2)
            return _mm256_permute2x128_si256(u, v, 0x31);
        else
            return _mm256_unpackhi_epi64(u, v);
    }

    /** Broadcast the per-block twiddles tw[0..W/T) into v-lane order. */
    template <int T>
    static V
    expandTwiddles(const uint64_t *tw)
    {
        const V raw =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(tw));
        if constexpr (T == 2)
            return _mm256_permute4x64_epi64(raw, 0x50); // [w0 w0 w1 w1]
        else
            return _mm256_permute4x64_epi64(raw, 0xD8); // [w0 w2 w1 w3]
    }
};

} // namespace

const KernelOps &
avx2Ops()
{
    static const KernelOps ops =
        Kernels<Avx2Policy>::ops("avx2", Backend::Avx2);
    return ops;
}

} // namespace kernels
} // namespace anaheim

#endif // ANAHEIM_HAVE_AVX2
