/**
 * @file
 * The AVX-512F/DQ SIMD policy: eight 64-bit lanes per op. Shared by the
 * avx512 backend and the avx512ifma backend, which derives its policy
 * from this one and keeps these bodies for the moduli its 52-bit lanes
 * cannot take.
 *
 * The unsigned conditional subtract is a single vpminuq against the
 * wrapped difference; the sub-width butterfly stages are two-source
 * permutes with precomputed index vectors, all in natural block order.
 *
 * Include only from a translation unit compiled with at least
 * -mavx512f -mavx512dq. The policy sits in an unnamed namespace so each
 * such unit gets its own copy, compiled under its own -m flags: no
 * inline body built with one unit's extensions can be picked by the
 * linker for another.
 */

#ifndef ANAHEIM_MATH_KERNELS_AVX512_POLICY_H
#define ANAHEIM_MATH_KERNELS_AVX512_POLICY_H

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace anaheim {
namespace kernels {
namespace {

struct Avx512Policy {
    using V = __m512i;
    static constexpr size_t kWidth = 8;

    static V load(const uint64_t *p) { return _mm512_loadu_si512(p); }
    static void store(uint64_t *p, V v) { _mm512_storeu_si512(p, v); }
    static V
    set1(uint64_t x)
    {
        return _mm512_set1_epi64(static_cast<long long>(x));
    }
    static V add(V a, V b) { return _mm512_add_epi64(a, b); }
    static V sub(V a, V b) { return _mm512_sub_epi64(a, b); }
    static V or_(V a, V b) { return _mm512_or_si512(a, b); }
    static V and_(V a, V b) { return _mm512_and_si512(a, b); }

    /** dst lane i = base[idx lane i] (64-bit indices, 8-byte scale). */
    static V
    gather(const uint64_t *base, V idx)
    {
        return _mm512_i64gather_epi64(idx, base, 8);
    }

    /** Per-lane select: b where sel's bit 63 is set, else a. */
    static V
    blendHighBit(V sel, V a, V b)
    {
        return _mm512_mask_blend_epi64(_mm512_movepi64_mask(sel), a, b);
    }
    static V mullo(V a, V b) { return _mm512_mullo_epi64(a, b); }
    static V
    srl(V x, unsigned s)
    {
        return _mm512_srl_epi64(x, _mm_cvtsi32_si128(static_cast<int>(s)));
    }
    static V
    sll(V x, unsigned s)
    {
        return _mm512_sll_epi64(x, _mm_cvtsi32_si128(static_cast<int>(s)));
    }

    /** High 64 bits of the lane-wise product (schoolbook, 4 vpmuludq). */
    static V
    mulhi(V a, V b)
    {
        const V aHi = _mm512_srli_epi64(a, 32);
        const V bHi = _mm512_srli_epi64(b, 32);
        const V t0 = _mm512_mul_epu32(a, b);
        const V t1 = _mm512_mul_epu32(aHi, b);
        const V t2 = _mm512_mul_epu32(a, bHi);
        const V t3 = _mm512_mul_epu32(aHi, bHi);
        const V m32 = _mm512_set1_epi64(0xffffffffLL);
        const V w = _mm512_add_epi64(t1, _mm512_srli_epi64(t0, 32));
        const V w1 = _mm512_add_epi64(_mm512_and_si512(w, m32), t2);
        return _mm512_add_epi64(
            t3, _mm512_add_epi64(_mm512_srli_epi64(w, 32),
                                 _mm512_srli_epi64(w1, 32)));
    }

    /** The Shoup step's companion: the high half of floor(w * 2^64 /
     *  q), hoisted out of the loops. */
    static V shoupCompanion(V wPre) { return _mm512_srli_epi64(wPre, 32); }

    /** a * w mod q in [0, 4q). The quotient is approximate: the high
     *  product without the low partial and without cross-term carries
     *  undershoots the exact one by at most 2 — covered by the kernel
     *  layer's 8q/4q lazy bounds. wc is shoupCompanion(wPre). */
    static V
    mulShoupLazy(V a, V w, V wPre, V wc, V q)
    {
        const V aHi = _mm512_srli_epi64(a, 32);
        const V t1 = _mm512_mul_epu32(aHi, wPre);
        const V t2 = _mm512_mul_epu32(a, wc);
        const V t3 = _mm512_mul_epu32(aHi, wc);
        const V quot = _mm512_add_epi64(
            t3, _mm512_add_epi64(_mm512_srli_epi64(t1, 32),
                                 _mm512_srli_epi64(t2, 32)));
        return _mm512_sub_epi64(_mm512_mullo_epi64(a, w),
                                _mm512_mullo_epi64(quot, q));
    }

    /** 1 where sum < addend (unsigned): the carry out of sum = x +
     *  addend. */
    static V
    carry(V sum, V addend)
    {
        return _mm512_maskz_set1_epi64(_mm512_cmplt_epu64_mask(sum, addend),
                                       1);
    }

    /** x >= m ? x - m : x, unsigned: min(x, x - m) — the subtraction
     *  wraps above x exactly when x < m. */
    static V
    csub(V x, V m)
    {
        return _mm512_min_epu64(x, _mm512_sub_epi64(x, m));
    }

    template <int T>
    static void
    deinterleave(V x0, V x1, V &u, V &v)
    {
        if constexpr (T == 4) {
            u = _mm512_permutex2var_epi64(
                x0, _mm512_set_epi64(11, 10, 9, 8, 3, 2, 1, 0), x1);
            v = _mm512_permutex2var_epi64(
                x0, _mm512_set_epi64(15, 14, 13, 12, 7, 6, 5, 4), x1);
        } else if constexpr (T == 2) {
            u = _mm512_permutex2var_epi64(
                x0, _mm512_set_epi64(13, 12, 9, 8, 5, 4, 1, 0), x1);
            v = _mm512_permutex2var_epi64(
                x0, _mm512_set_epi64(15, 14, 11, 10, 7, 6, 3, 2), x1);
        } else {
            static_assert(T == 1, "unsupported half-width");
            u = _mm512_permutex2var_epi64(
                x0, _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0), x1);
            v = _mm512_permutex2var_epi64(
                x0, _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1), x1);
        }
    }

    template <int T>
    static V
    interleaveLo(V u, V v)
    {
        if constexpr (T == 4) {
            return _mm512_permutex2var_epi64(
                u, _mm512_set_epi64(11, 10, 9, 8, 3, 2, 1, 0), v);
        } else if constexpr (T == 2) {
            return _mm512_permutex2var_epi64(
                u, _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0), v);
        } else {
            return _mm512_permutex2var_epi64(
                u, _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0), v);
        }
    }

    template <int T>
    static V
    interleaveHi(V u, V v)
    {
        if constexpr (T == 4) {
            return _mm512_permutex2var_epi64(
                u, _mm512_set_epi64(15, 14, 13, 12, 7, 6, 5, 4), v);
        } else if constexpr (T == 2) {
            return _mm512_permutex2var_epi64(
                u, _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4), v);
        } else {
            return _mm512_permutex2var_epi64(
                u, _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4), v);
        }
    }

    template <int T>
    static V
    expandTwiddles(const uint64_t *tw)
    {
        const V raw = _mm512_loadu_si512(tw);
        if constexpr (T == 4) {
            return _mm512_permutexvar_epi64(
                _mm512_set_epi64(1, 1, 1, 1, 0, 0, 0, 0), raw);
        } else if constexpr (T == 2) {
            return _mm512_permutexvar_epi64(
                _mm512_set_epi64(3, 3, 2, 2, 1, 1, 0, 0), raw);
        } else {
            return raw;
        }
    }
};


} // namespace
} // namespace kernels
} // namespace anaheim

#endif // ANAHEIM_MATH_KERNELS_AVX512_POLICY_H
