/**
 * @file
 * On-die SEC-DED (39,32) ECC model for the PIM word-read boundary.
 *
 * Every PIM operand read rides a raw DRAM array, so Anaheim's MMAC
 * datapath inherits DRAM's bit-error exposure. Commodity HBM/DDR5
 * answer with on-die single-error-correct / double-error-detect codes
 * at 32-bit granularity; we model the standard extended-Hamming
 * construction: a (38,32) Hamming code (6 parity bits at power-of-two
 * positions 1,2,4,8,16,32) plus one overall parity bit at position 0,
 * giving a 39-bit codeword per 32-bit stored word.
 *
 * Decode semantics:
 *  - syndrome 0, overall parity even  -> clean;
 *  - overall parity odd               -> single-bit error, corrected
 *    (syndrome names the position; syndrome 0 means the overall parity
 *    bit itself flipped);
 *  - syndrome != 0, parity even       -> double-bit error, detected
 *    but uncorrectable.
 *
 * Three or more flipped bits can alias to any of the three outcomes;
 * callers that know the ground truth (the fault model does) classify
 * those as silent corruption.
 */

#ifndef ANAHEIM_SIM_ECC_H
#define ANAHEIM_SIM_ECC_H

#include <cstddef>
#include <cstdint>

namespace anaheim {

enum class EccOutcome {
    Clean,         ///< syndrome clear, word accepted as-is
    Corrected,     ///< single-bit error corrected
    Uncorrectable, ///< double-bit error detected, data not trustworthy
};

struct EccDecodeResult {
    uint32_t data = 0; ///< best-effort decoded word
    EccOutcome outcome = EccOutcome::Clean;
};

/** Stateless SEC-DED (39,32) encoder/decoder. */
class SecDed3932
{
  public:
    static constexpr unsigned kDataBits = 32;
    static constexpr unsigned kCodeBits = 39;

    /** Expand a 32-bit word into its 39-bit codeword. */
    static uint64_t encode(uint32_t data);

    /** Decode a (possibly corrupted) codeword: correct single-bit
     *  errors, flag double-bit errors. */
    static EccDecodeResult decode(uint64_t codeword);

    /** The 32 data bits of a codeword, uncorrected (the raw view a
     *  no-ECC datapath would deliver). */
    static uint32_t extractData(uint64_t codeword);
};

} // namespace anaheim

#endif // ANAHEIM_SIM_ECC_H
