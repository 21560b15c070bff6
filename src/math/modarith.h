/**
 * @file
 * Scalar modular arithmetic over word-sized primes.
 *
 * The functional CKKS library works with 64-bit words and primes up to
 * 2^59 (generic path via 128-bit products). The Anaheim PIM hardware model
 * instead uses 28-bit primes with Montgomery reduction (see montgomery.h);
 * both paths are cross-checked in the test suite.
 */

#ifndef ANAHEIM_MATH_MODARITH_H
#define ANAHEIM_MATH_MODARITH_H

#include <cstdint>

namespace anaheim {

/** a + b mod q, assuming a, b < q. */
inline uint64_t
addMod(uint64_t a, uint64_t b, uint64_t q)
{
    const uint64_t sum = a + b;
    return sum >= q ? sum - q : sum;
}

/** a - b mod q, assuming a, b < q. */
inline uint64_t
subMod(uint64_t a, uint64_t b, uint64_t q)
{
    return a >= b ? a - b : a + q - b;
}

/** -a mod q, assuming a < q. */
inline uint64_t
negMod(uint64_t a, uint64_t q)
{
    return a == 0 ? 0 : q - a;
}

/** a * b mod q via a 128-bit product; valid for any q < 2^63. */
inline uint64_t
mulMod(uint64_t a, uint64_t b, uint64_t q)
{
    return static_cast<uint64_t>(
        static_cast<unsigned __int128>(a) * b % q);
}

/** High 64 bits of the 128-bit product a * b. */
inline uint64_t
mulHi64(uint64_t a, uint64_t b)
{
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(a) * b) >> 64);
}

/** a * b + c mod q. */
inline uint64_t
macMod(uint64_t a, uint64_t b, uint64_t c, uint64_t q)
{
    return addMod(mulMod(a, b, q), c, q);
}

/**
 * Shoup precomputation for a fixed multiplicand w < q: floor(w * 2^64 / q).
 * With it, a * w mod q costs one mulhi, two multiplies, and at most one
 * conditional subtraction — no division (see ShoupMul).
 */
inline uint64_t
shoupPrecompute(uint64_t w, uint64_t q)
{
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(w) << 64) / q);
}

/**
 * a * w mod q with a precomputed Shoup constant, reduced only to [0, 2q):
 * the lazy form Harvey-style NTT butterflies consume directly. Valid for
 * any 64-bit a, w < q, q < 2^63. Writing w*2^64 = wPrecon*q + b with
 * 0 <= b < q, the returned value is a*w - floor(a*wPrecon/2^64)*q =
 * (q*(a*wPrecon mod 2^64) + a*b) / 2^64 < q + a*q/2^64 < 2q.
 */
inline uint64_t
mulModShoupLazy(uint64_t a, uint64_t w, uint64_t wPrecon, uint64_t q)
{
    const uint64_t quot = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(a) * wPrecon) >> 64);
    return a * w - quot * q;
}

/** a * w mod q with a precomputed Shoup constant, fully reduced. */
inline uint64_t
mulModShoup(uint64_t a, uint64_t w, uint64_t wPrecon, uint64_t q)
{
    const uint64_t r = mulModShoupLazy(a, w, wPrecon, q);
    return r >= q ? r - q : r;
}

/**
 * Prepared fixed multiplicand for division-free modular products: carries
 * w together with its Shoup companion floor(w * 2^64 / q). Prepare once,
 * then every a * w mod q on the broadcast path costs one mulhi + one
 * multiply + at most one conditional subtraction — the same pattern the
 * 28-bit Montgomery path exposes as mulModPrepared. Requires w < q and
 * q < 2^63; the modulus is passed at multiply time so tables of prepared
 * constants stay two words per entry.
 */
class ShoupMul
{
  public:
    ShoupMul() = default;
    ShoupMul(uint64_t w, uint64_t q)
        : w_(w), wPrecon_(shoupPrecompute(w, q))
    {
    }

    uint64_t operand() const { return w_; }
    uint64_t precon() const { return wPrecon_; }

    /** a * w mod q, fully reduced; any 64-bit a. */
    uint64_t
    mul(uint64_t a, uint64_t q) const
    {
        return mulModShoup(a, w_, wPrecon_, q);
    }

    /** a * w mod q reduced only to [0, 2q); any 64-bit a. */
    uint64_t
    mulLazy(uint64_t a, uint64_t q) const
    {
        return mulModShoupLazy(a, w_, wPrecon_, q);
    }

  private:
    uint64_t w_ = 0;
    uint64_t wPrecon_ = 0;
};

/** a^e mod q by square-and-multiply. */
uint64_t powMod(uint64_t a, uint64_t e, uint64_t q);

/** Multiplicative inverse of a mod q (q prime), via Fermat. */
uint64_t invMod(uint64_t a, uint64_t q);

/**
 * Precomputed Barrett constant for fast reduction of 128-bit products
 * modulo a fixed prime q < 2^62. Matches the shoup-style word reduction
 * GPU FHE libraries use for element-wise kernels.
 */
class Barrett
{
  public:
    Barrett() = default;
    explicit Barrett(uint64_t q);

    uint64_t modulus() const { return q_; }

    /** Reduce a full 128-bit value modulo q. */
    uint64_t reduce(unsigned __int128 x) const;

    /**
     * Reduce one 64-bit word modulo q. The high word of the ratio is
     * floor(2^64 / q), so one high multiply undershoots floor(x / q)
     * by at most one and one conditional subtraction finishes. No
     * division.
     */
    uint64_t
    reduceWord(uint64_t x) const
    {
        const uint64_t r = x - mulHi64(x, ratioHi_) * q_;
        return r >= q_ ? r - q_ : r;
    }

    /** a * b mod q using the precomputed constant. */
    uint64_t
    mulMod(uint64_t a, uint64_t b) const
    {
        return reduce(static_cast<unsigned __int128>(a) * b);
    }

    /** Bit width k of the modulus: 2^(k-1) <= q < 2^k. */
    unsigned shiftBits() const { return shiftBits_; }

    /**
     * floor(2^(2k) / q): the single-word Barrett factor the vector
     * kernels use. For canonical inputs a, b < q the word-sized
     * reduction P - floor(floor(P/2^(k-1)) * factor / 2^(k+1)) * q
     * lands in [0, 3q) and two conditional subtractions make it
     * canonical — the same value reduce() computes.
     */
    uint64_t factor64() const { return factor64_; }

    /**
     * floor(2^(63+k) / q) = floor(2^(64+s) / q) with s = k - 1: the
     * factor the KeyMult inner product reduces its sums with. For a
     * sum P < 2^(64+s), mulhi(floor(P / 2^s), wideFactor()) undershoots
     * floor(P / q) by at most 2. Shifted right by 12 it is the same
     * factor for 52-bit lanes (P < 2^(52+s)).
     */
    uint64_t wideFactor() const { return wideFactor_; }

  private:
    uint64_t q_ = 0;
    /** floor(2^128 / q), stored as two 64-bit halves. */
    uint64_t ratioHi_ = 0;
    uint64_t ratioLo_ = 0;
    uint64_t factor64_ = 0;
    uint64_t wideFactor_ = 0;
    unsigned shiftBits_ = 0;
};

/** Centered representative of a mod q in (-q/2, q/2]. */
inline int64_t
toCentered(uint64_t a, uint64_t q)
{
    return a > q / 2 ? static_cast<int64_t>(a) - static_cast<int64_t>(q)
                     : static_cast<int64_t>(a);
}

/** Map a signed value into [0, q). */
inline uint64_t
fromSigned(int64_t a, uint64_t q)
{
    const int64_t r = a % static_cast<int64_t>(q);
    return r < 0 ? static_cast<uint64_t>(r + static_cast<int64_t>(q))
                 : static_cast<uint64_t>(r);
}

/** fromSigned through a prepared Barrett constant (no division): the
 *  form per-coefficient loops use. */
inline uint64_t
fromSigned(int64_t a, const Barrett &br)
{
    // Negate in unsigned arithmetic so INT64_MIN stays defined.
    const uint64_t magnitude = a < 0 ? 0 - static_cast<uint64_t>(a)
                                     : static_cast<uint64_t>(a);
    const uint64_t r = br.reduceWord(magnitude);
    return a < 0 ? negMod(r, br.modulus()) : r;
}

} // namespace anaheim

#endif // ANAHEIM_MATH_MODARITH_H
