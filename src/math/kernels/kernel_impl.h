/**
 * @file
 * Policy-templated bodies for every kernel backend (DESIGN.md §13).
 *
 * The transforms and element-wise loops are written once against a
 * small SIMD policy (load/store, 64-bit add/sub/mullo/mulhi, a
 * conditional subtract, and — for lanes-wide backends — the shuffle
 * primitives the sub-vector-width butterfly stages need). Each backend
 * translation unit instantiates Kernels<Policy> under its own -m flags,
 * so the same algorithm compiles to scalar, AVX2, and AVX-512 code.
 *
 * Transform structure (forward; the inverse mirrors it):
 *
 * - **Cache-blocked recursion.** The Cooley–Tukey butterfly tree is
 *   walked depth-first: big-stride passes split the polynomial until a
 *   block fits kTileElems (32 KiB — under half a typical 48 KiB L1d),
 *   then the remaining log(tile) passes run tile-resident. A block of
 *   length `len` at offset `o` uses twiddle index n/len + o/len, which
 *   is exactly the bit-reversed table's binary-tree numbering, so the
 *   recursion needs no twiddle bookkeeping. Stage loops carry the
 *   index as a running counter — consecutive blocks of one stage have
 *   consecutive tree indices — keeping 64-bit divides out of the hot
 *   loops.
 * - **Radix-4 merged passes.** Wherever two consecutive stages both
 *   have vector-wide strides, they are fused: four strided loads and
 *   stores feed four butterflies, halving the memory traffic of the
 *   dominant passes.
 * - **Sub-width stages in registers.** Once the butterfly stride drops
 *   to or below the vector width, each aligned group of 2*W
 *   coefficients is independent for all remaining stages: the group is
 *   loaded into two vectors, the t == W stage needs no shuffle at all,
 *   and each narrower stage deinterleaves with policy shuffles. The
 *   group is stored once, after the folded normalization.
 * - **Lazy bounds.** The lazy Shoup step a * w mod q is a policy hook
 *   (P::mulShoupLazy, fed the companion form P::shoupCompanion makes of
 *   the table's floor(w * 2^64 / q)). The AVX2/AVX-512F policies use a
 *   three-multiply approximate quotient (the low partial product is
 *   dropped), so products land in [0, 4q) instead of Harvey's [0, 2q);
 *   the IFMA policy's 52-bit product and the scalar policy's exact
 *   mulhi land in [0, 2q). Forward intermediates stay < 8q via a single
 *   csub-4q per butterfly; inverse intermediates stay < 4q. q < 2^59 is
 *   gated upstream, so 8q < 2^62 never wraps; the IFMA backend runs
 *   these bodies only for q < 2^49, where 8q < 2^52 fits its lanes.
 * - **Exactness.** The final normalization (forward) and the folded
 *   N^-1 last stage (inverse) produce canonical residues, so every
 *   backend is bitwise identical to the division-based reference.
 */

#ifndef ANAHEIM_MATH_KERNELS_KERNEL_IMPL_H
#define ANAHEIM_MATH_KERNELS_KERNEL_IMPL_H

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "math/kernels.h"
#include "math/modarith.h"

namespace anaheim {
namespace kernels {

/** L1-resident tile: 4096 coefficients = 32 KiB of working set. */
inline constexpr size_t kTileElems = 4096;

/**
 * Products a KeyMult inner-product lane may sum before one reduction,
 * for q with s = bits(q) - 1 (so q < 2^(s+1)) and a canonical
 * carried-in partial sum: (q - 1) + C (q - 1)^2 < 2^(s+1) + C 2^(2s+2)
 * stays below the 2^(64+s) that reduceWide accepts when
 * C <= 2^(62-s) - 1. That is 15 terms at q < 2^59, 31 at q < 2^58 and
 * 2047 at q < 2^52 — chunks past it reduce and carry on. The same sums
 * fit an unsigned __int128 (C 2^(2s+2) < 2^128), so the scalar lanes
 * use it too.
 */
inline size_t
wideTermsPerReduce(unsigned s)
{
    return (size_t{1} << (62 - s)) - 1;
}

/** dualInnerProduct over coefficients [begin, end) on scalar lanes:
 *  unsigned __int128 sums, one Barrett::reduce per
 *  wideTermsPerReduce() terms. Every backend's tail. */
inline void
dualInnerProductScalar(uint64_t *acc0, uint64_t *acc1,
                       const uint64_t *const *a, const uint64_t *const *b0,
                       const uint64_t *const *b1, size_t terms,
                       size_t begin, size_t end, const Barrett &br)
{
    const size_t chunk = wideTermsPerReduce(br.shiftBits() - 1);
    for (size_t i = begin; i < end; ++i) {
        unsigned __int128 sum0 = acc0[i];
        unsigned __int128 sum1 = acc1[i];
        for (size_t j0 = 0; j0 < terms; j0 += chunk) {
            const size_t j1 = std::min(terms, j0 + chunk);
            for (size_t j = j0; j < j1; ++j) {
                sum0 += static_cast<unsigned __int128>(a[j][i]) * b0[j][i];
                sum1 += static_cast<unsigned __int128>(a[j][i]) * b1[j][i];
            }
            sum0 = br.reduce(sum0);
            sum1 = br.reduce(sum1);
        }
        acc0[i] = static_cast<uint64_t>(sum0);
        acc1[i] = static_cast<uint64_t>(sum1);
    }
}

template <class P>
struct Kernels {
    using V = typename P::V;
    static constexpr size_t W = P::kWidth;

    // ----------------------------------------------------------- utils

    /** Fully-reduced Shoup product (two csubs cover the [0, 4q) lazy
     *  range). */
    static V
    shoupFull(V a, V w, V wPre, V wc, V q, V q2)
    {
        return P::csub(P::csub(P::mulShoupLazy(a, w, wPre, wc, q), q2), q);
    }

    // ------------------------------------------------- forward (CT DIT)

    /** One radix-2 forward stage over every block of length blen in
     *  [o0, o0+l); t = blen/2 >= W. idx is the tree index of the first
     *  block. Inputs/outputs < 8q. */
    static void
    fwdStage2(const NttView &v, uint64_t *data, size_t o0, size_t l,
              size_t blen, size_t idx)
    {
        const size_t t = blen / 2;
        const V vq = P::set1(v.q);
        const V v4q = P::set1(4 * v.q);
        for (size_t o = o0; o < o0 + l; o += blen, ++idx) {
            uint64_t *blk = data + o;
            const V vw = P::set1(v.tw[idx]);
            const V vwp = P::set1(v.twShoup[idx]);
            const V vwph = P::shoupCompanion(vwp);
            for (size_t j = 0; j < t; j += W) {
                V u = P::load(blk + j);
                V x = P::load(blk + j + t);
                u = P::csub(u, v4q);
                const V s = P::mulShoupLazy(x, vw, vwp, vwph, vq);
                P::store(blk + j, P::add(u, s));
                P::store(blk + j + t, P::sub(P::add(u, v4q), s));
            }
        }
    }

    /** Two merged radix-2 forward stages (radix-4) over every block of
     *  length blen in [o0, o0+l); blen/4 >= W. Four loads and stores
     *  feed four butterflies. */
    static void
    fwdStage4(const NttView &v, uint64_t *data, size_t o0, size_t l,
              size_t blen, size_t idx)
    {
        const size_t qtr = blen / 4;
        const V vq = P::set1(v.q);
        const V v4q = P::set1(4 * v.q);
        for (size_t o = o0; o < o0 + l; o += blen, ++idx) {
            uint64_t *blk = data + o;
            const V w1 = P::set1(v.tw[idx]);
            const V w1p = P::set1(v.twShoup[idx]);
            const V w1ph = P::shoupCompanion(w1p);
            const V w2 = P::set1(v.tw[2 * idx]);
            const V w2p = P::set1(v.twShoup[2 * idx]);
            const V w2ph = P::shoupCompanion(w2p);
            const V w3 = P::set1(v.tw[2 * idx + 1]);
            const V w3p = P::set1(v.twShoup[2 * idx + 1]);
            const V w3ph = P::shoupCompanion(w3p);
            for (size_t j = 0; j < qtr; j += W) {
                V a = P::load(blk + j);
                V b = P::load(blk + j + qtr);
                V c = P::load(blk + j + 2 * qtr);
                V d = P::load(blk + j + 3 * qtr);
                // Stage 1: pairs (a, c) and (b, d), twiddle w1.
                a = P::csub(a, v4q);
                b = P::csub(b, v4q);
                const V sc = P::mulShoupLazy(c, w1, w1p, w1ph, vq);
                const V sd = P::mulShoupLazy(d, w1, w1p, w1ph, vq);
                V a1 = P::add(a, sc);
                V c1 = P::sub(P::add(a, v4q), sc);
                V b1 = P::add(b, sd);
                V d1 = P::sub(P::add(b, v4q), sd);
                // Stage 2: pairs (a1, b1) w2 and (c1, d1) w3.
                a1 = P::csub(a1, v4q);
                c1 = P::csub(c1, v4q);
                const V sb = P::mulShoupLazy(b1, w2, w2p, w2ph, vq);
                const V sd2 = P::mulShoupLazy(d1, w3, w3p, w3ph, vq);
                P::store(blk + j, P::add(a1, sb));
                P::store(blk + j + qtr, P::sub(P::add(a1, v4q), sb));
                P::store(blk + j + 2 * qtr, P::add(c1, sd2));
                P::store(blk + j + 3 * qtr,
                         P::sub(P::add(c1, v4q), sd2));
            }
        }
    }

    /** The t == W stage on one in-register chunk (x0, x1): the halves
     *  are already whole vectors, so no shuffle is needed. One twiddle
     *  covers the chunk. */
    static void
    fwdSmallStepFull(const NttView &v, V &x0, V &x1, size_t idx)
    {
        const V vq = P::set1(v.q);
        const V v4q = P::set1(4 * v.q);
        const V vw = P::set1(v.tw[idx]);
        const V vwp = P::set1(v.twShoup[idx]);
        const V vwph = P::shoupCompanion(vwp);
        const V u = P::csub(x0, v4q);
        const V s = P::mulShoupLazy(x1, vw, vwp, vwph, vq);
        x0 = P::add(u, s);
        x1 = P::sub(P::add(u, v4q), s);
    }

    /** One in-register stage with half-width T < W over the chunk
     *  (x0, x1) of 2W consecutive coefficients; idx is the tree index
     *  of the chunk's first block, whose W/T twiddles are contiguous. */
    template <int T>
    static void
    fwdSmallStep(const NttView &v, V &x0, V &x1, size_t idx)
    {
        const V vq = P::set1(v.q);
        const V v4q = P::set1(4 * v.q);
        const V wv = P::template expandTwiddles<T>(v.tw + idx);
        const V wp = P::template expandTwiddles<T>(v.twShoup + idx);
        const V wph = P::shoupCompanion(wp);
        V u, x;
        P::template deinterleave<T>(x0, x1, u, x);
        u = P::csub(u, v4q);
        const V s = P::mulShoupLazy(x, wv, wp, wph, vq);
        const V nu = P::add(u, s);
        const V nv = P::sub(P::add(u, v4q), s);
        x0 = P::template interleaveLo<T>(nu, nv);
        x1 = P::template interleaveHi<T>(nu, nv);
    }

    /** All remaining forward stages with half-width <= W, plus the
     *  final normalization from [0, 8q) to canonical [0, q). Processes
     *  one 2W-aligned chunk at a time entirely in registers.
     *  blen0 is the first remaining stage: 2W (t == W first) or W. */
    static void
    fwdSmallStages(const NttView &v, uint64_t *data, size_t o0, size_t l,
                   size_t blen0)
    {
        if constexpr (W > 1) {
            const V vq = P::set1(v.q);
            const V v2q = P::set1(2 * v.q);
            const V v4q = P::set1(4 * v.q);
            const bool full = blen0 == 2 * W;
            for (size_t o = o0; o < o0 + l; o += 2 * W) {
                V x0 = P::load(data + o);
                V x1 = P::load(data + o + W);
                // Stage indices are n/blen + o/blen with constant
                // blen — pure shifts.
                if (full) {
                    fwdSmallStepFull(v, x0, x1,
                                     (v.n + o) / (2 * W));
                }
                if constexpr (W >= 8) {
                    fwdSmallStep<4>(v, x0, x1, (v.n + o) / 8);
                }
                if constexpr (W >= 4) {
                    fwdSmallStep<2>(v, x0, x1, (v.n + o) / 4);
                }
                fwdSmallStep<1>(v, x0, x1, (v.n + o) / 2);
                x0 = P::csub(P::csub(P::csub(x0, v4q), v2q), vq);
                x1 = P::csub(P::csub(P::csub(x1, v4q), v2q), vq);
                P::store(data + o, x0);
                P::store(data + o + W, x1);
            }
        } else {
            (void)v;
            (void)data;
            (void)o0;
            (void)l;
            (void)blen0;
        }
    }

    /** Tile-resident stages: every remaining forward stage for the
     *  block [o0, o0+l), then normalization while the tile is hot. */
    static void
    fwdTile(const NttView &v, uint64_t *data, size_t o0, size_t l)
    {
        // Radix loops stop once the in-register chain can take over
        // (blen <= 2W); scalar has no such chain and runs to blen 2.
        constexpr size_t stop = W > 1 ? 2 * W : 1;
        size_t blen = l;
        while (blen > stop && blen / 4 >= W) {
            fwdStage4(v, data, o0, l, blen, v.n / blen + o0 / blen);
            blen >>= 2;
        }
        while (blen > stop && blen / 2 >= W) {
            fwdStage2(v, data, o0, l, blen, v.n / blen + o0 / blen);
            blen >>= 1;
        }
        if constexpr (W > 1) {
            // blen landed on W or 2W (l is a power of two >= 2W).
            fwdSmallStages(v, data, o0, l, blen);
            return;
        }
        // Scalar backend normalizes here.
        const uint64_t q = v.q;
        for (size_t i = o0; i < o0 + l; ++i) {
            uint64_t x = data[i];
            if (x >= 4 * q)
                x -= 4 * q;
            if (x >= 2 * q)
                x -= 2 * q;
            if (x >= q)
                x -= q;
            data[i] = x;
        }
    }

    /** Depth-first blocked recursion over block [o, o+len). */
    static void
    fwdRecurse(const NttView &v, uint64_t *data, size_t o, size_t len)
    {
        if (len <= kTileElems) {
            fwdTile(v, data, o, len);
            return;
        }
        if (len >= 4 * kTileElems) {
            fwdStage4(v, data, o, len, len, v.n / len + o / len);
            const size_t qtr = len / 4;
            for (size_t k = 0; k < 4; ++k)
                fwdRecurse(v, data, o + k * qtr, qtr);
            return;
        }
        // len == 2 * kTileElems: one radix-2 pass, two half tiles.
        fwdStage2(v, data, o, len, len, v.n / len + o / len);
        fwdRecurse(v, data, o, len / 2);
        fwdRecurse(v, data, o + len / 2, len / 2);
    }

    static void
    forwardLazy(const NttView &v, uint64_t *data)
    {
        fwdRecurse(v, data, 0, v.n);
    }

    // ------------------------------------------------ inverse (GS DIF)

    /** One radix-2 inverse stage over every block of length blen in
     *  [o0, o0+l); t = blen/2 >= W. When `final` (blen == n), N^-1 is
     *  folded in and outputs are canonical; otherwise inputs/outputs
     *  stay < 4q. */
    static void
    invStage2(const NttView &v, uint64_t *data, size_t o0, size_t l,
              size_t blen, size_t idx, bool final)
    {
        const size_t t = blen / 2;
        const V vq = P::set1(v.q);
        const V v2q = P::set1(2 * v.q);
        const V v4q = P::set1(4 * v.q);
        if (final) {
            const V ni = P::set1(v.nInv);
            const V nip = P::set1(v.nInvShoup);
            const V niph = P::shoupCompanion(nip);
            const V lw = P::set1(v.lastW);
            const V lwp = P::set1(v.lastWShoup);
            const V lwph = P::shoupCompanion(lwp);
            for (size_t o = o0; o < o0 + l; o += blen) {
                uint64_t *blk = data + o;
                for (size_t j = 0; j < t; j += W) {
                    const V u = P::load(blk + j);
                    const V x = P::load(blk + j + t);
                    P::store(blk + j, shoupFull(P::add(u, x), ni, nip,
                                                niph, vq, v2q));
                    P::store(blk + j + t,
                             shoupFull(P::sub(P::add(u, v4q), x), lw,
                                       lwp, lwph, vq, v2q));
                }
            }
            return;
        }
        for (size_t o = o0; o < o0 + l; o += blen, ++idx) {
            uint64_t *blk = data + o;
            const V vw = P::set1(v.tw[idx]);
            const V vwp = P::set1(v.twShoup[idx]);
            const V vwph = P::shoupCompanion(vwp);
            for (size_t j = 0; j < t; j += W) {
                const V u = P::load(blk + j);
                const V x = P::load(blk + j + t);
                P::store(blk + j, P::csub(P::add(u, x), v4q));
                P::store(blk + j + t,
                         P::mulShoupLazy(P::sub(P::add(u, v4q), x), vw, vwp,
                                         vwph, vq));
            }
        }
    }

    /** Two merged inverse stages over every block of length 2*blen in
     *  [o0, o0+l): stage blen (twiddles ia, ia+1 per block) then stage
     *  2*blen (twiddle ib). blen/2 >= W. `final` when 2*blen == n. */
    static void
    invStage4(const NttView &v, uint64_t *data, size_t o0, size_t l,
              size_t blen, size_t ia, size_t ib, bool final)
    {
        const size_t qtr = blen / 2;
        const V vq = P::set1(v.q);
        const V v2q = P::set1(2 * v.q);
        const V v4q = P::set1(4 * v.q);
        const V ni = P::set1(v.nInv);
        const V nip = P::set1(v.nInvShoup);
        const V niph = P::shoupCompanion(nip);
        const V lw = P::set1(v.lastW);
        const V lwp = P::set1(v.lastWShoup);
        const V lwph = P::shoupCompanion(lwp);
        for (size_t o = o0; o < o0 + l; o += 2 * blen, ia += 2, ++ib) {
            uint64_t *blk = data + o;
            const V wa = P::set1(v.tw[ia]);
            const V wap = P::set1(v.twShoup[ia]);
            const V waph = P::shoupCompanion(wap);
            const V wb = P::set1(v.tw[ia + 1]);
            const V wbp = P::set1(v.twShoup[ia + 1]);
            const V wbph = P::shoupCompanion(wbp);
            const V wc = P::set1(v.tw[ib]);
            const V wcp = P::set1(v.twShoup[ib]);
            const V wcph = P::shoupCompanion(wcp);
            for (size_t j = 0; j < qtr; j += W) {
                const V a = P::load(blk + j);
                const V b = P::load(blk + j + qtr);
                const V c = P::load(blk + j + blen);
                const V d = P::load(blk + j + blen + qtr);
                // Stage 1: (a, b) with wa; (c, d) with wb.
                const V s1 = P::csub(P::add(a, b), v4q);
                const V d1 = P::mulShoupLazy(P::sub(P::add(a, v4q), b), wa,
                                             wap, waph, vq);
                const V s2 = P::csub(P::add(c, d), v4q);
                const V d2 = P::mulShoupLazy(P::sub(P::add(c, v4q), d), wb,
                                             wbp, wbph, vq);
                // Stage 2: (s1, s2) and (d1, d2), twiddle ib.
                if (final) {
                    P::store(blk + j, shoupFull(P::add(s1, s2), ni,
                                                nip, niph, vq, v2q));
                    P::store(blk + j + blen,
                             shoupFull(P::sub(P::add(s1, v4q), s2), lw,
                                       lwp, lwph, vq, v2q));
                    P::store(blk + j + qtr,
                             shoupFull(P::add(d1, d2), ni, nip, niph,
                                       vq, v2q));
                    P::store(blk + j + blen + qtr,
                             shoupFull(P::sub(P::add(d1, v4q), d2), lw,
                                       lwp, lwph, vq, v2q));
                } else {
                    P::store(blk + j, P::csub(P::add(s1, s2), v4q));
                    P::store(blk + j + blen,
                             P::mulShoupLazy(P::sub(P::add(s1, v4q), s2), wc,
                                             wcp, wcph, vq));
                    P::store(blk + j + qtr,
                             P::csub(P::add(d1, d2), v4q));
                    P::store(blk + j + blen + qtr,
                             P::mulShoupLazy(P::sub(P::add(d1, v4q), d2), wc,
                                             wcp, wcph, vq));
                }
            }
        }
    }

    /** The t == W inverse stage on one in-register chunk; folds N^-1
     *  when it is also the transform's final stage (n == 2W). */
    static void
    invSmallStepFull(const NttView &v, V &x0, V &x1, size_t idx,
                     bool final)
    {
        const V vq = P::set1(v.q);
        const V v4q = P::set1(4 * v.q);
        if (final) {
            const V v2q = P::set1(2 * v.q);
            const V ni = P::set1(v.nInv);
            const V nip = P::set1(v.nInvShoup);
            const V niph = P::shoupCompanion(nip);
            const V lw = P::set1(v.lastW);
            const V lwp = P::set1(v.lastWShoup);
            const V lwph = P::shoupCompanion(lwp);
            const V s = shoupFull(P::add(x0, x1), ni, nip, niph, vq,
                                  v2q);
            const V d = shoupFull(P::sub(P::add(x0, v4q), x1), lw, lwp,
                                  lwph, vq, v2q);
            x0 = s;
            x1 = d;
            return;
        }
        const V vw = P::set1(v.tw[idx]);
        const V vwp = P::set1(v.twShoup[idx]);
        const V vwph = P::shoupCompanion(vwp);
        const V s = P::csub(P::add(x0, x1), v4q);
        const V d = P::mulShoupLazy(P::sub(P::add(x0, v4q), x1), vw, vwp,
                                    vwph, vq);
        x0 = s;
        x1 = d;
    }

    /** One in-register inverse stage with half-width T < W. */
    template <int T>
    static void
    invSmallStep(const NttView &v, V &x0, V &x1, size_t idx)
    {
        const V vq = P::set1(v.q);
        const V v4q = P::set1(4 * v.q);
        const V wv = P::template expandTwiddles<T>(v.tw + idx);
        const V wp = P::template expandTwiddles<T>(v.twShoup + idx);
        const V wph = P::shoupCompanion(wp);
        V u, x;
        P::template deinterleave<T>(x0, x1, u, x);
        const V s = P::csub(P::add(u, x), v4q);
        const V d = P::mulShoupLazy(P::sub(P::add(u, v4q), x), wv, wp, wph,
                                    vq);
        x0 = P::template interleaveLo<T>(s, d);
        x1 = P::template interleaveHi<T>(s, d);
    }

    /** The leading inverse stages with half-width <= W, in registers
     *  per 2W-aligned chunk: stages blen = 2 .. 2W (t = 1 .. W). */
    static void
    invSmallStages(const NttView &v, uint64_t *data, size_t o0,
                   size_t l)
    {
        if constexpr (W > 1) {
            const bool final = 2 * W == v.n;
            for (size_t o = o0; o < o0 + l; o += 2 * W) {
                V x0 = P::load(data + o);
                V x1 = P::load(data + o + W);
                invSmallStep<1>(v, x0, x1, (v.n + o) / 2);
                if constexpr (W >= 4) {
                    invSmallStep<2>(v, x0, x1, (v.n + o) / 4);
                }
                if constexpr (W >= 8) {
                    invSmallStep<4>(v, x0, x1, (v.n + o) / 8);
                }
                invSmallStepFull(v, x0, x1, (v.n + o) / (2 * W),
                                 final);
                P::store(data + o, x0);
                P::store(data + o + W, x1);
            }
        } else {
            (void)v;
            (void)data;
            (void)o0;
            (void)l;
        }
    }

    /** Tile-resident leading inverse stages for block [o0, o0+l):
     *  everything with blen <= l. */
    static void
    invTile(const NttView &v, uint64_t *data, size_t o0, size_t l)
    {
        size_t blen = 2;
        if constexpr (W > 1) {
            invSmallStages(v, data, o0, l);
            blen = 4 * W;
        }
        // Radix-4 merged pairs (blen, 2*blen) while they fit the tile.
        while (2 * blen <= l) {
            invStage4(v, data, o0, l, blen,
                      v.n / blen + o0 / blen,
                      v.n / (2 * blen) + o0 / (2 * blen),
                      2 * blen == v.n);
            blen <<= 2;
        }
        // Leftover radix-2 stage up to the tile length (log parity).
        while (blen <= l) {
            invStage2(v, data, o0, l, blen, v.n / blen + o0 / blen,
                      blen == v.n);
            blen <<= 1;
        }
    }

    static void
    invRecurse(const NttView &v, uint64_t *data, size_t o, size_t len)
    {
        if (len <= kTileElems) {
            invTile(v, data, o, len);
            return;
        }
        if (len >= 4 * kTileElems) {
            const size_t qtr = len / 4;
            for (size_t k = 0; k < 4; ++k)
                invRecurse(v, data, o + k * qtr, qtr);
            invStage4(v, data, o, len, len / 2,
                      v.n / (len / 2) + o / (len / 2),
                      v.n / len + o / len, len == v.n);
            return;
        }
        invRecurse(v, data, o, len / 2);
        invRecurse(v, data, o + len / 2, len / 2);
        invStage2(v, data, o, len, len, v.n / len + o / len,
                  len == v.n);
    }

    static void
    inverseLazy(const NttView &v, uint64_t *data)
    {
        if (v.n == 1)
            return; // N^-1 == 1: the transform is the identity.
        invRecurse(v, data, 0, v.n);
    }

    // ----------------------------------------------------- element-wise

    static void
    mulShoup(uint64_t *dst, const uint64_t *src, size_t n, uint64_t w,
             uint64_t wShoup, uint64_t q)
    {
        size_t i = 0;
        if constexpr (W > 1) {
            const V vq = P::set1(q);
            const V v2q = P::set1(2 * q);
            const V vw = P::set1(w);
            const V vwp = P::set1(wShoup);
            const V vwph = P::shoupCompanion(vwp);
            for (; i + W <= n; i += W)
                P::store(dst + i, shoupFull(P::load(src + i), vw, vwp,
                                            vwph, vq, v2q));
        }
        for (; i < n; ++i)
            dst[i] = mulModShoup(src[i], w, wShoup, q);
    }

    /** inBound only matters to backends whose lanes are narrower than
     *  64 bits (IFMA); these bodies take any 64-bit src. */
    static void
    mulShoupAcc(uint64_t *acc, const uint64_t *src, size_t n, uint64_t w,
                uint64_t wShoup, uint64_t q, uint64_t inBound)
    {
        (void)inBound;
        size_t i = 0;
        if constexpr (W > 1) {
            const V vq = P::set1(q);
            const V v2q = P::set1(2 * q);
            const V vw = P::set1(w);
            const V vwp = P::set1(wShoup);
            const V vwph = P::shoupCompanion(vwp);
            for (; i + W <= n; i += W) {
                const V s = shoupFull(P::load(src + i), vw, vwp, vwph,
                                      vq, v2q);
                P::store(acc + i,
                         P::csub(P::add(P::load(acc + i), s), vq));
            }
        }
        for (; i < n; ++i)
            acc[i] = addMod(acc[i], mulModShoup(src[i], w, wShoup, q),
                            q);
    }

    static void
    subMulShoup(uint64_t *dst, const uint64_t *a, const uint64_t *b,
                size_t n, uint64_t w, uint64_t wShoup, uint64_t q)
    {
        size_t i = 0;
        if constexpr (W > 1) {
            const V vq = P::set1(q);
            const V v2q = P::set1(2 * q);
            const V vw = P::set1(w);
            const V vwp = P::set1(wShoup);
            const V vwph = P::shoupCompanion(vwp);
            for (; i + W <= n; i += W) {
                const V d = P::csub(
                    P::add(P::sub(P::load(a + i), P::load(b + i)), vq),
                    vq);
                P::store(dst + i, shoupFull(d, vw, vwp, vwph, vq,
                                            v2q));
            }
        }
        for (; i < n; ++i)
            dst[i] = mulModShoup(anaheim::subMod(a[i], b[i], q), w,
                                 wShoup, q);
    }

    static void
    addModV(uint64_t *dst, const uint64_t *a, const uint64_t *b,
            size_t n, uint64_t q)
    {
        size_t i = 0;
        if constexpr (W > 1) {
            const V vq = P::set1(q);
            for (; i + W <= n; i += W) {
                P::store(dst + i,
                         P::csub(P::add(P::load(a + i), P::load(b + i)),
                                 vq));
            }
        }
        for (; i < n; ++i)
            dst[i] = anaheim::addMod(a[i], b[i], q);
    }

    static void
    subModV(uint64_t *dst, const uint64_t *a, const uint64_t *b,
            size_t n, uint64_t q)
    {
        size_t i = 0;
        if constexpr (W > 1) {
            const V vq = P::set1(q);
            for (; i + W <= n; i += W) {
                const V s = P::add(
                    P::sub(P::load(a + i), P::load(b + i)), vq);
                P::store(dst + i, P::csub(s, vq));
            }
        }
        for (; i < n; ++i)
            dst[i] = anaheim::subMod(a[i], b[i], q);
    }

    static void
    negModV(uint64_t *dst, const uint64_t *src, size_t n, uint64_t q)
    {
        size_t i = 0;
        if constexpr (W > 1) {
            const V vq = P::set1(q);
            // q - a lands on q when a == 0; the csub folds it to 0.
            for (; i + W <= n; i += W) {
                P::store(dst + i,
                         P::csub(P::sub(vq, P::load(src + i)), vq));
            }
        }
        for (; i < n; ++i)
            dst[i] = anaheim::negMod(src[i], q);
    }

    /** Word-sized Barrett product of canonical lanes; see
     *  Barrett::factor64(). Uses the exact mulhi — the quotient
     *  derivation depends on it. Result is in [0, 3q) before the two
     *  csubs. */
    static V
    barrettMul(V a, V b, V vq, V v2q, V vmu, unsigned k)
    {
        const V pHi = P::mulhi(a, b);
        const V pLo = P::mullo(a, b);
        const V c1 = P::or_(P::sll(pHi, 65 - k), P::srl(pLo, k - 1));
        const V c3 = P::or_(P::sll(P::mulhi(c1, vmu), 63 - k),
                            P::srl(P::mullo(c1, vmu), k + 1));
        V r = P::sub(pLo, P::mullo(c3, vq));
        r = P::csub(r, v2q);
        return P::csub(r, vq);
    }

    static void
    mulBarrett(uint64_t *dst, const uint64_t *a, const uint64_t *b,
               size_t n, const Barrett &br)
    {
        size_t i = 0;
        if constexpr (W > 1) {
            const unsigned k = br.shiftBits();
            const V vq = P::set1(br.modulus());
            const V v2q = P::set1(2 * br.modulus());
            const V vmu = P::set1(br.factor64());
            for (; i + W <= n; i += W) {
                P::store(dst + i, barrettMul(P::load(a + i),
                                             P::load(b + i), vq, v2q,
                                             vmu, k));
            }
        }
        for (; i < n; ++i)
            dst[i] = br.mulMod(a[i], b[i]);
    }

    static void
    macBarrett(uint64_t *acc, const uint64_t *a, const uint64_t *b,
               size_t n, const Barrett &br)
    {
        size_t i = 0;
        if constexpr (W > 1) {
            const unsigned k = br.shiftBits();
            const V vq = P::set1(br.modulus());
            const V v2q = P::set1(2 * br.modulus());
            const V vmu = P::set1(br.factor64());
            for (; i + W <= n; i += W) {
                const V p = barrettMul(P::load(a + i), P::load(b + i),
                                       vq, v2q, vmu, k);
                P::store(acc + i,
                         P::csub(P::add(P::load(acc + i), p), vq));
            }
        }
        for (; i < n; ++i)
            acc[i] = addMod(acc[i], br.mulMod(a[i], b[i]),
                            br.modulus());
    }

    /** (H * 2^64 + L) mod q, canonical, for H * 2^64 + L < 2^(64+s)
     *  where s = bits(q) - 1 and vmu = Barrett::wideFactor() =
     *  floor(2^(64+s) / q): c1 = floor(P / 2^s) fits one word, the
     *  exact mulhi(c1, vmu) undershoots floor(P / q) by at most 2, and
     *  two csubs finish from [0, 3q). */
    static V
    reduceWide(V hi, V lo, V vq, V v2q, V vmu, unsigned s)
    {
        const V c1 = P::or_(P::sll(hi, 64 - s), P::srl(lo, s));
        const V r = P::sub(lo, P::mullo(P::mulhi(c1, vmu), vq));
        return P::csub(P::csub(r, v2q), vq);
    }

    /** The KeyMult inner product: acc0[i] += sum_j a[j][i] * b0[j][i]
     *  and acc1[i] += sum_j a[j][i] * b1[j][i] (mod q), each a[j] read
     *  once. Vector lanes sum full 128-bit products (mullo + exact
     *  mulhi + carry) and reduce once per wideTermsPerReduce() terms;
     *  the scalar lanes (and every tail) sum unsigned __int128 and
     *  reduce with Barrett::reduce. */
    static void
    dualInnerProduct(uint64_t *acc0, uint64_t *acc1,
                     const uint64_t *const *a, const uint64_t *const *b0,
                     const uint64_t *const *b1, size_t terms, size_t n,
                     const Barrett &br)
    {
        const unsigned s = br.shiftBits() - 1;
        const size_t chunk = wideTermsPerReduce(s);
        size_t i = 0;
        if constexpr (W > 1) {
            const V vq = P::set1(br.modulus());
            const V v2q = P::set1(2 * br.modulus());
            const V vmu = P::set1(br.wideFactor());
            const V zero = P::set1(0);
            for (; i + W <= n; i += W) {
                V lo0 = P::load(acc0 + i);
                V lo1 = P::load(acc1 + i);
                for (size_t j0 = 0; j0 < terms; j0 += chunk) {
                    const size_t j1 = std::min(terms, j0 + chunk);
                    V hi0 = zero;
                    V hi1 = zero;
                    for (size_t j = j0; j < j1; ++j) {
                        const V x = P::load(a[j] + i);
                        const V y0 = P::load(b0[j] + i);
                        const V y1 = P::load(b1[j] + i);
                        const V p0 = P::mullo(x, y0);
                        const V p1 = P::mullo(x, y1);
                        lo0 = P::add(lo0, p0);
                        lo1 = P::add(lo1, p1);
                        hi0 = P::add(hi0, P::add(P::mulhi(x, y0),
                                                 P::carry(lo0, p0)));
                        hi1 = P::add(hi1, P::add(P::mulhi(x, y1),
                                                 P::carry(lo1, p1)));
                    }
                    lo0 = reduceWide(hi0, lo0, vq, v2q, vmu, s);
                    lo1 = reduceWide(hi1, lo1, vq, v2q, vmu, s);
                }
                P::store(acc0 + i, lo0);
                P::store(acc1 + i, lo1);
            }
        }
        dualInnerProductScalar(acc0, acc1, a, b0, b1, terms, i, n, br);
    }

    static void
    permuteNegV(uint64_t *dst, const uint64_t *src, const uint64_t *idx,
                size_t n, uint64_t q)
    {
        size_t i = 0;
        if constexpr (W > 1) {
            const V vq = P::set1(q);
            const V vmask = P::set1(kPermuteIndexMask);
            for (; i + W <= n; i += W) {
                const V e = P::load(idx + i);
                const V r = P::gather(src, P::and_(e, vmask));
                // q - r lands on q when r == 0; the csub folds it to 0.
                const V neg = P::csub(P::sub(vq, r), vq);
                P::store(dst + i, P::blendHighBit(e, r, neg));
            }
        }
        for (; i < n; ++i) {
            const uint64_t e = idx[i];
            const uint64_t r = src[e & kPermuteIndexMask];
            dst[i] = (e & kPermuteNegBit) != 0 ? anaheim::negMod(r, q)
                                               : r;
        }
    }

    /** The backend's KernelOps table. */
    static KernelOps
    ops(const char *name, Backend backend)
    {
        KernelOps k;
        k.name = name;
        k.backend = backend;
        k.minDegree = W == 1 ? 1 : 2 * W;
        k.nttForwardLazy = &forwardLazy;
        k.nttInverseLazy = &inverseLazy;
        k.mulShoup = &mulShoup;
        k.mulShoupAcc = &mulShoupAcc;
        k.subMulShoup = &subMulShoup;
        k.addMod = &addModV;
        k.subMod = &subModV;
        k.negMod = &negModV;
        k.mulBarrett = &mulBarrett;
        k.macBarrett = &macBarrett;
        k.dualInnerProduct = &dualInnerProduct;
        k.permuteNeg = &permuteNegV;
        return k;
    }
};

} // namespace kernels
} // namespace anaheim

#endif // ANAHEIM_MATH_KERNELS_KERNEL_IMPL_H
