/**
 * @file
 * Deterministic, seedable fault injection for the PIM datapath.
 *
 * Two injection modes, both reproducible from a single seed:
 *
 *  - BER-driven: every bit of a codeword read flips independently with
 *    probability `ber`. The per-bit draws are keyed by
 *    (seed, limb, word, epoch), so the same seed reproduces the same
 *    fault sites regardless of read order, and bumping the epoch
 *    models a replay in which transient faults re-sample (a retried
 *    read usually succeeds, like a real transient upset).
 *  - Targeted: explicit (limb, word, bit-mask) faults, either
 *    transient (XOR) or stuck-at (persist across epochs by
 *    construction). Used by tests to place exactly one or two flipped
 *    bits under the ECC decoder.
 *
 * Faults land on four disjoint *sites* of the datapath, each with its
 * own coordinate namespace (FaultSite / siteWord): operand reads,
 * coherence write-backs, the post-multiply MMAC lane datapath (no ECC
 * reaches it: every lane flip is silent until a ciphertext checksum
 * catches it), and DRAM cell retention decay sampled per refresh
 * window. Storage sites share `ber`; the lane and retention sites
 * carry their own rates (`laneBer`, `retentionBerPerWindow`).
 *
 * The model also exposes an event-level view for the timing framework
 * (FaultModel::sampleEvents / sampleLaneEvents / sampleRetention):
 * instead of corrupting real words, it draws how many of an op's
 * codeword accesses suffered single-/multi-bit faults,
 * deterministically per (seed, stream id), so
 * AnaheimFramework::execute can charge retries, scrubs and rollbacks
 * without running functional data through the trace.
 */

#ifndef ANAHEIM_SIM_FAULT_H
#define ANAHEIM_SIM_FAULT_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace anaheim {

enum class FaultKind {
    Transient,  ///< XOR the mask into the read (re-read may differ)
    StuckAtZero,///< masked cells always read 0
    StuckAtOne, ///< masked cells always read 1
};

/**
 * Distinct fault-site classes of the PIM datapath. Each site tags the
 * high bits of the word coordinate (siteWord), so a read, a write-back
 * and a lane operation at the same array offset never share fault
 * sites. OperandRead is tag 0: read-path coordinates are unchanged
 * from the original read-only fault model, so existing seeds
 * reproduce the same read-fault sites.
 */
enum class FaultSite : uint64_t {
    OperandRead = 0, ///< operand word leaving the array into the unit
    WriteBack = 1,   ///< result word riding the write drivers back
    MmacLane = 2,    ///< post-multiply transient flip inside the lane
    Retention = 3,   ///< cell decay between refreshes
};

/** Fold a fault site into a word coordinate (bits 56+ carry the
 *  site tag; array offsets stay below 2^56). */
constexpr size_t
siteWord(FaultSite site, size_t word)
{
    return (static_cast<size_t>(site) << 56) | word;
}

/** One deliberately placed fault. */
struct TargetedFault {
    size_t limb = 0;
    size_t word = 0;       ///< word index within the limb
    uint64_t bitMask = 0;  ///< codeword bits affected
    FaultKind kind = FaultKind::Transient;
};

/** A permanently failed DRAM bank: every codeword access striped onto
 *  it is multi-bit corrupt, on every attempt and every generation. */
struct PermanentBankFault {
    size_t dieGroup = 0;
    size_t bank = 0; ///< bank index within the die group
};

/** A permanently broken MMAC lane: every modular multiply routed
 *  through it is silently wrong (no ECC on the 28-bit datapath). */
struct PermanentLaneFault {
    size_t dieGroup = 0;
    size_t lane = 0; ///< lane index within the group's units
};

struct FaultConfig {
    /** Raw per-bit error probability per codeword access on the
     *  storage sites (operand reads and write-backs). */
    double ber = 0.0;
    /** Per-bit transient-flip probability per MMAC lane operation on
     *  the 28-bit post-multiply datapath. No ECC covers it. */
    double laneBer = 0.0;
    /** Per-bit decay probability per refresh window for resident
     *  cells (the Retention site). */
    double retentionBerPerWindow = 0.0;
    /** Seed for the fault-site PRNG; identical seeds reproduce
     *  identical fault sites. */
    uint64_t seed = 0x0ddfa117u;
    std::vector<TargetedFault> targets;

    /** Explicitly dead banks/lanes (always failed, any seed). */
    std::vector<PermanentBankFault> permanentBanks;
    std::vector<PermanentLaneFault> permanentLanes;
    /** Monte-Carlo permanent-failure probability per bank, sampled
     *  deterministically per (seed, die group, bank) by
     *  FaultModel::samplePermanentBanks — the fabrication/wear-out
     *  axis of a degradation campaign. */
    double permanentBankRate = 0.0;

    bool enabled() const
    {
        return ber > 0.0 || laneBer > 0.0 || retentionBerPerWindow > 0.0 ||
               !targets.empty() || !permanentBanks.empty() ||
               !permanentLanes.empty() || permanentBankRate > 0.0;
    }
};

/** Per-codeword fault-class counts for one sampled read stream. */
struct FaultEventCounts {
    uint64_t faulty = 0;    ///< codewords with >= 1 flipped bit
    uint64_t singleBit = 0; ///< exactly one flipped bit (SEC repairs)
    uint64_t multiBit = 0;  ///< >= 2 flipped bits (DED territory)
};

class FaultModel
{
  public:
    explicit FaultModel(FaultConfig config);

    const FaultConfig &config() const { return config_; }
    bool enabled() const { return config_.enabled(); }

    /**
     * Corrupt a `bits`-wide codeword access at (limb, word) during
     * `epoch` with the storage BER. Deterministic in
     * (seed, limb, word, epoch); pure. Callers distinguish reads from
     * write-backs by folding a FaultSite tag into `word` (siteWord).
     */
    uint64_t corrupt(uint64_t codeword, size_t limb, size_t word,
                     uint64_t epoch, unsigned bits) const;

    /**
     * Transient flip on the 28-bit post-multiply lane datapath at
     * (limb, word = lane-op index) during `epoch`, at `laneBer`.
     * Targeted faults aimed at siteWord(MmacLane, word) also land
     * here, so tests can place exact lane upsets.
     */
    uint32_t corruptLane(uint32_t value, size_t limb, size_t word,
                         uint64_t epoch) const;

    /**
     * Event-level draw: of `words` codeword accesses in stream
     * `streamId` (e.g. op index × retry attempt), how many were faulty
     * and how. Deterministic in (seed, streamId); does not mutate the
     * model.
     */
    FaultEventCounts sampleEvents(size_t words, uint64_t streamId) const;

    /**
     * Event-level lane draw: of `laneOps` modular multiplies in stream
     * `streamId`, how many suffered a post-multiply flip. Only
     * `faulty` is populated: the lane datapath has no ECC, so there is
     * no single/multi split — every hit is silent at the unit.
     */
    FaultEventCounts sampleLaneEvents(size_t laneOps,
                                      uint64_t streamId) const;

    /**
     * Event-level retention draw for one refresh `window` over `words`
     * resident codewords: single-bit decays are scrub/ECC-correctable,
     * multi-bit ones are uncorrectable data loss. Deterministic in
     * (seed, window).
     */
    FaultEventCounts sampleRetention(uint64_t window, size_t words) const;

    /**
     * The permanently failed banks of a `dieGroups` x `banksPerGroup`
     * device: the explicitly configured ones plus a deterministic
     * per-(seed, die group, bank) draw at `permanentBankRate`. Sorted
     * and de-duplicated; independent of epoch/stream by design — a
     * dead bank fails every replay.
     */
    std::vector<PermanentBankFault>
    samplePermanentBanks(size_t dieGroups, size_t banksPerGroup) const;

  private:
    uint64_t corruptAtRate(uint64_t codeword, double rate, size_t limb,
                           size_t word, uint64_t epoch,
                           unsigned bits) const;

    FaultConfig config_;
};

} // namespace anaheim

#endif // ANAHEIM_SIM_FAULT_H
