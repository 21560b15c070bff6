/**
 * @file
 * Scalar kernel backend: the policy-templated bodies instantiated with
 * one 64-bit lane. Bitwise identical to (and a drop-in replacement for)
 * the original hand-written Harvey/Shoup loops, but with the same
 * cache-blocked, radix-4 transform structure as the vector backends, so
 * the no-SIMD build exercises the identical control flow.
 */

#include "math/kernels/kernel_impl.h"

namespace anaheim {
namespace kernels {

namespace {

struct ScalarPolicy {
    using V = uint64_t;
    static constexpr size_t kWidth = 1;

    static V load(const uint64_t *p) { return *p; }
    static void store(uint64_t *p, V v) { *p = v; }
    static V set1(uint64_t x) { return x; }
    static V add(V a, V b) { return a + b; }
    static V sub(V a, V b) { return a - b; }
    static V mullo(V a, V b) { return a * b; }
    static V mulhi(V a, V b) { return mulHi64(a, b); }
    /** The Shoup step's companion is the table's own word. */
    static V shoupCompanion(V wPre) { return wPre; }
    /** Native mulhi is exact, so the product lands in Harvey's
     *  [0, 2q) — tighter than the [0, 4q) the kernel layer assumes. */
    static V
    mulShoupLazy(V a, V w, V wPre, V wc, V q)
    {
        (void)wc;
        return a * w - mulHi64(a, wPre) * q;
    }
    static V csub(V x, V m) { return x >= m ? x - m : x; }
    static V srl(V x, unsigned s) { return x >> s; }
    static V sll(V x, unsigned s) { return x << s; }
    static V or_(V a, V b) { return a | b; }
};

} // namespace

const KernelOps &
scalarOps()
{
    static const KernelOps ops =
        Kernels<ScalarPolicy>::ops("scalar", Backend::Scalar);
    return ops;
}

} // namespace kernels
} // namespace anaheim
