#include "ecc.h"

#include <bit>

namespace anaheim {

namespace {

constexpr bool
isPowerOfTwo(unsigned x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Codeword positions 1..38 that carry data bits (non-power-of-two). */
constexpr unsigned
dataPosition(unsigned dataIdx)
{
    unsigned pos = 0;
    unsigned seen = 0;
    for (pos = 1; pos < SecDed3932::kCodeBits; ++pos) {
        if (isPowerOfTwo(pos))
            continue;
        if (seen == dataIdx)
            return pos;
        ++seen;
    }
    return 0; // unreachable for dataIdx < 32
}

struct PositionTables {
    unsigned dataPos[SecDed3932::kDataBits] = {};
    /** For each codeword position, the data index it carries or ~0u. */
    unsigned dataIdxAt[SecDed3932::kCodeBits] = {};

    constexpr PositionTables()
    {
        for (unsigned pos = 0; pos < SecDed3932::kCodeBits; ++pos)
            dataIdxAt[pos] = ~0u;
        for (unsigned i = 0; i < SecDed3932::kDataBits; ++i) {
            dataPos[i] = dataPosition(i);
            dataIdxAt[dataPos[i]] = i;
        }
    }
};

constexpr PositionTables kTables;

/** Hamming syndrome over positions 1..38 (6 bits). */
uint64_t
syndromeOf(uint64_t codeword)
{
    uint64_t syndrome = 0;
    for (unsigned pos = 1; pos < SecDed3932::kCodeBits; ++pos) {
        if ((codeword >> pos) & 1)
            syndrome ^= pos;
    }
    return syndrome;
}

} // namespace

uint64_t
SecDed3932::encode(uint32_t data)
{
    uint64_t codeword = 0;
    for (unsigned i = 0; i < kDataBits; ++i) {
        if ((data >> i) & 1)
            codeword |= uint64_t{1} << kTables.dataPos[i];
    }
    // Parity bits at power-of-two positions zero out the syndrome.
    const uint64_t syndrome = syndromeOf(codeword);
    for (unsigned p = 1; p < kCodeBits; p <<= 1) {
        if (syndrome & p)
            codeword |= uint64_t{1} << p;
    }
    // Overall parity (position 0): even parity over the full codeword.
    if (std::popcount(codeword) & 1)
        codeword |= 1;
    return codeword;
}

uint32_t
SecDed3932::extractData(uint64_t codeword)
{
    uint32_t data = 0;
    for (unsigned i = 0; i < kDataBits; ++i) {
        if ((codeword >> kTables.dataPos[i]) & 1)
            data |= uint32_t{1} << i;
    }
    return data;
}

EccDecodeResult
SecDed3932::decode(uint64_t codeword)
{
    codeword &= (uint64_t{1} << kCodeBits) - 1;
    const uint64_t syndrome = syndromeOf(codeword);
    const bool parityOdd = (std::popcount(codeword) & 1) != 0;

    EccDecodeResult result;
    if (syndrome == 0 && !parityOdd) {
        result.data = extractData(codeword);
        result.outcome = EccOutcome::Clean;
        return result;
    }
    if (parityOdd) {
        // Single-bit error; syndrome 0 means the parity bit itself.
        if (syndrome < kCodeBits) {
            const uint64_t corrected =
                codeword ^ (uint64_t{1} << syndrome);
            result.data = extractData(corrected);
            result.outcome = EccOutcome::Corrected;
            return result;
        }
        // Syndrome points outside the codeword: only reachable with
        // >= 3 flipped bits. The decoder cannot repair it.
        result.data = extractData(codeword);
        result.outcome = EccOutcome::Uncorrectable;
        return result;
    }
    // Nonzero syndrome with even parity: double-bit error.
    result.data = extractData(codeword);
    result.outcome = EccOutcome::Uncorrectable;
    return result;
}

} // namespace anaheim
