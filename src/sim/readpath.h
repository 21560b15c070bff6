/**
 * @file
 * The resilient word datapath for PimFunctionalUnit.
 *
 * Every operand word a PIM instruction consumes (array reads and
 * data-buffer entries alike) passes through readWord(), every result
 * word it stores passes through writeWord(), and every post-multiply
 * lane value can pass through laneValue(). Together they model the
 * full on-die pipeline: ECC-encode the stored word, ride the raw
 * array (or the write drivers, or the bare 28-bit MMAC datapath)
 * through the fault model, SEC-DED-decode on the way into or out of
 * the unit. Counters classify each access against the ground truth
 * the simulator knows:
 *
 *  - corrected:      single-bit upset repaired, data exact;
 *  - uncorrectable:  detected double-bit upset, data poisoned (and
 *    uncorrectableSeen() latches so the caller can retry/fall back);
 *  - silent:         corrupt data delivered as clean — every faulty
 *    word with ECC off, >= 3-bit aliasing with ECC on, and every
 *    MMAC lane flip (no code covers the compute datapath; only a
 *    ciphertext-level checksum can catch those downstream).
 *
 * A write-back fault is latent in real hardware — the corrupted
 * codeword sits in the array until the next read. The functional
 * model returns plain words, so writeWord folds the eventual
 * read-side ECC decode into the store: the classification is the one
 * the next consumer of that word would observe.
 *
 * With no datapath attached, PimFunctionalUnit reads and writes words
 * directly: the fault-free golden path is bitwise identical to the
 * pre-fault-model code and pays no overhead.
 */

#ifndef ANAHEIM_SIM_READPATH_H
#define ANAHEIM_SIM_READPATH_H

#include <cstddef>
#include <cstdint>

#include "ecc.h"
#include "fault.h"

namespace anaheim {

/** Classification counters maintained by PimDataPath. */
struct ReadPathCounters {
    uint64_t wordsRead = 0;
    uint64_t wordsWritten = 0;
    uint64_t laneOps = 0;        ///< lane values routed through laneValue
    uint64_t faultyWords = 0;    ///< storage codewords with >= 1 flip
    uint64_t corrected = 0;      ///< SEC repaired, data exact
    uint64_t uncorrectable = 0;  ///< DED flagged, data poisoned
    uint64_t silent = 0;         ///< corrupt data delivered as clean
    uint64_t laneFaults = 0;     ///< post-multiply flips (all silent)
};

/**
 * Word coordinate of element `i` of the instruction's operand slot
 * `slot` (a, b, c, d, ... = 0, 1, 2, 3, ...). Distinct slots live at
 * distinct array addresses, so they never share fault sites; reads
 * and write-backs of the same coordinate are separated by the
 * FaultSite tag (siteWord).
 */
constexpr size_t
operandWord(size_t slot, size_t i)
{
    return (slot << 24) | i;
}

class PimDataPath
{
  public:
    PimDataPath(const FaultConfig &faults, bool eccEnabled);

    bool eccEnabled() const { return ecc_; }

    /** Set the limb coordinate of subsequent accesses (the functional
     *  unit processes one limb at a time). */
    void setLimb(size_t limb) { limb_ = limb; }
    size_t limb() const { return limb_; }

    /** Advance the replay epoch: transient BER faults re-sample,
     *  stuck-at targeted faults persist. Models a retried segment. */
    void nextEpoch() { ++epoch_; }
    uint64_t epoch() const { return epoch_; }

    /** Read one stored word at `word` within the current limb through
     *  fault injection and (optionally) SEC-DED decode. */
    uint32_t readWord(uint32_t stored, size_t word);

    /**
     * Store one result word at `word` through the write drivers:
     * faults land on the freshly encoded codeword (WriteBack site)
     * and the returned value reflects what the next read's ECC decode
     * would deliver.
     */
    uint32_t writeWord(uint32_t value, size_t word);

    /**
     * Route one post-multiply lane value through the MMAC transient
     * fault site (`word` is a per-instruction lane-op index). No ECC:
     * any flip is silent corruption at the unit.
     */
    uint32_t laneValue(uint32_t value, size_t word);

    const ReadPathCounters &counters() const { return counters_; }
    void resetCounters() { counters_ = ReadPathCounters{}; }

    /** True once any access since the last clear was uncorrectable. */
    bool uncorrectableSeen() const { return uncorrectableSeen_; }
    void clearUncorrectableSeen() { uncorrectableSeen_ = false; }

  private:
    /** Shared ECC-decode classification for read/write accesses whose
     *  raw codeword differs from the clean one. */
    uint32_t classifyStorageFault(uint64_t rawRead, uint32_t stored);

    FaultModel model_;
    bool ecc_;
    size_t limb_ = 0;
    uint64_t epoch_ = 0;
    ReadPathCounters counters_;
    bool uncorrectableSeen_ = false;
};

} // namespace anaheim

#endif // ANAHEIM_SIM_READPATH_H
