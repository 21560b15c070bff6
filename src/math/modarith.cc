#include "modarith.h"

#include "common/logging.h"

namespace anaheim {

uint64_t
powMod(uint64_t a, uint64_t e, uint64_t q)
{
    uint64_t base = a % q;
    uint64_t result = 1;
    while (e > 0) {
        if (e & 1)
            result = mulMod(result, base, q);
        base = mulMod(base, base, q);
        e >>= 1;
    }
    return result;
}

uint64_t
invMod(uint64_t a, uint64_t q)
{
    ANAHEIM_ASSERT(a % q != 0, "inverse of zero mod ", q);
    return powMod(a, q - 2, q);
}

Barrett::Barrett(uint64_t q) : q_(q)
{
    ANAHEIM_ASSERT(q > 1 && q < (1ULL << 62), "Barrett modulus out of range");
    // Compute floor(2^128 / q) by long division of 2^128 by q.
    unsigned __int128 rem = 0;
    uint64_t hi = 0;
    uint64_t lo = 0;
    for (int bit = 127; bit >= 0; --bit) {
        rem <<= 1;
        rem |= 1; // dividend 2^128 - 1 approximates 2^128 closely enough
        if (rem >= q) {
            rem -= q;
            if (bit >= 64)
                hi |= 1ULL << (bit - 64);
            else
                lo |= 1ULL << bit;
        }
    }
    ratioHi_ = hi;
    ratioLo_ = lo;

    // Word-sized companion for the vector kernels: k = bits(q) and
    // floor(2^(2k) / q). 2k <= 124 for q < 2^62, so the quotient fits
    // one 128-bit division and, being < 2^(k+1), one 64-bit word.
    unsigned k = 0;
    while ((q >> k) != 0)
        ++k;
    shiftBits_ = k;
    factor64_ = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(1) << (2 * k)) / q);
    // 63 + k <= 125, and the quotient is < 2^64 since q >= 2^(k-1).
    wideFactor_ = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(1) << (63 + k)) / q);
}

uint64_t
Barrett::reduce(unsigned __int128 x) const
{
    // q < 2^62 so x/q fits in 128 bits; estimate the quotient with the
    // top half of x times the precomputed ratio, then correct.
    const uint64_t xHi = static_cast<uint64_t>(x >> 64);
    const uint64_t xLo = static_cast<uint64_t>(x);
    // quotient ~= floor((xHi * 2^64 + xLo) * ratio / 2^128)
    const unsigned __int128 t1 =
        static_cast<unsigned __int128>(xHi) * ratioHi_;
    const unsigned __int128 t2 =
        static_cast<unsigned __int128>(xHi) * ratioLo_;
    const unsigned __int128 t3 =
        static_cast<unsigned __int128>(xLo) * ratioHi_;
    unsigned __int128 quot = t1 + (t2 >> 64) + (t3 >> 64);
    unsigned __int128 r = x - quot * q_;
    while (r >= q_)
        r -= q_;
    return static_cast<uint64_t>(r);
}

} // namespace anaheim
