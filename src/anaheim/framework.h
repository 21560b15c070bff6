/**
 * @file
 * The Anaheim execution framework (§V): takes a kernel trace, decides
 * which kernels run on the GPU and which are offloaded to PIM, inserts
 * the coherence write-backs of §V-C, and plays the schedule out on a
 * single stream (GPU and PIM kernels never overlap, §V-C "no
 * pipelining") against the GPU roofline and the PIM/DRAM simulator.
 */

#ifndef ANAHEIM_ANAHEIM_FRAMEWORK_H
#define ANAHEIM_ANAHEIM_FRAMEWORK_H

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dram/scrub.h"
#include "gpu/gpumodel.h"
#include "pim/kernelmodel.h"
#include "sim/fault.h"
#include "sim/health.h"
#include "trace/kernel.h"

namespace anaheim {

/** Segment-group checkpointing of the live ciphertext footprint. A
 *  snapshot every `intervalSegments` trace segments lets detected
 *  corruption (uncorrectable ECC, scrub hits, checksum mismatches)
 *  roll back and replay from the last clean state instead of
 *  abandoning the whole PIM segment to the GPU. */
struct CheckpointConfig {
    bool enabled = false;
    /** Trace segments (ops) between snapshots. */
    size_t intervalSegments = 16;
    /** Rollbacks allowed per run before corruption is surfaced as
     *  unrecovered (bounds replay storms on persistent faults). */
    size_t maxRollbacks = 8;
};

/**
 * Reliability knobs for the PIM datapath (§VI-A operand reads ride raw
 * DRAM arrays): the faults a run injects (FaultConfig) plus the
 * recovery policy. With every rate at 0 and scrub / checksums /
 * checkpointing disabled (the defaults), the resilience machinery is
 * bypassed entirely and execution is bitwise identical to the
 * fault-free model. The timing model samples fault events, not words,
 * so `targets` must stay empty here (AnaheimFramework rejects them).
 */
struct ResilienceConfig : FaultConfig {
    /** On-die SEC-DED (39,32) at the PIM word-read boundary. Without
     *  it, faults go undetected (no retry/fallback, silent errors). */
    bool eccEnabled = true;
    /** Replays of a PIM segment after a detected-uncorrectable ECC
     *  event before recovering (checkpoint rollback when enabled,
     *  else GPU fallback). */
    size_t maxPimRetries = 2;
    /** Per-limb rolling checksums over the ciphertext residues,
     *  verified at coherence write-back boundaries. The only detector
     *  that sees lane faults and ECC-off corruption. */
    bool checksumEnabled = false;
    /** Periodic ECC scrub passes over the live footprint. */
    ScrubConfig scrub;
    /** Segment-group checkpoint / rollback replay. */
    CheckpointConfig checkpoint;
    /** Health monitoring + quarantine/remap policy. Disabled, a
     *  permanent fault burns the rollback budget and falls back to
     *  the GPU; enabled, repeated failures at one site quarantine it
     *  and execution migrates onto the healthy subset. */
    HealthConfig health;
};

struct AnaheimConfig {
    GpuConfig gpu;
    LibraryProfile library;
    DramConfig dram;
    PimConfig pim;
    bool pimEnabled = true;
    ResilienceConfig resilience;

    /** A100 80GB with near-bank PIM (Table III column 1). */
    static AnaheimConfig a100NearBank();
    /** A100 80GB with custom-HBM PIM (column 2). */
    static AnaheimConfig a100CustomHbm();
    /** RTX 4090 with near-bank PIM (column 3). */
    static AnaheimConfig rtx4090NearBank();
};

/** What limited a timeline entry's duration in the roofline model. */
enum class BoundBy {
    None,      ///< maintenance phases (Scrub/Checkpoint/...)
    Compute,   ///< int-op throughput bound (GPU)
    Bandwidth, ///< DRAM/internal streaming bound (GPU memory side, PIM)
};

struct GanttEntry {
    std::string phase;
    std::string device; ///< "GPU", "PIM" or "DRAM" (maintenance)
    KernelClass cls;
    double startNs = 0.0;
    double endNs = 0.0;
    /** Energy attributed to this entry (0 for entries recorded before
     *  attribution existed; always set by execute()). */
    double energyPj = 0.0;
    BoundBy bound = BoundBy::None;
};

/** The canonical `RunResult::timeline` order enforced by execute():
 *  (startNs, device, phase) ascending — stable across thread counts so
 *  trace exports and golden tests are reproducible. */
bool timelineEntryLess(const GanttEntry &a, const GanttEntry &b);

/** True when `timeline` is in canonical order. */
bool timelineIsCanonical(const std::vector<GanttEntry> &timeline);

/** Put `timeline` in canonical order: a stable sort by
 *  timelineEntryLess, skipped when the timeline already is canonical
 *  (the stable sort of a sorted range is the identity). */
void canonicalizeTimeline(std::vector<GanttEntry> &timeline);

/** Fault/ECC/recovery counters accumulated over one execution. */
struct ResilienceStats {
    /** PIM codeword reads with >= 1 flipped bit. */
    uint64_t faultyWords = 0;
    /** Single-bit upsets repaired by SEC-DED (data exact). */
    uint64_t eccCorrected = 0;
    /** Detected-uncorrectable (double-bit) ECC events. */
    uint64_t eccUncorrectable = 0;
    /** Corrupt words delivered as clean (all faults with ECC off). */
    uint64_t silentErrors = 0;
    /** PIM segment replays triggered by uncorrectable events. */
    uint64_t pimRetries = 0;
    /** PIM segments abandoned to the GPU after retries ran out. */
    uint64_t gpuFallbacks = 0;
    /** MMAC lane multiplies hit by a post-multiply transient flip
     *  (always silent at the unit; only checksums can catch them). */
    uint64_t laneFaults = 0;
    /** Resident words hit by retention decay between refreshes. */
    uint64_t retentionFaultyWords = 0;
    /** Periodic scrub passes executed. */
    uint64_t scrubPasses = 0;
    /** Single-bit retention decays repaired in place by a scrub. */
    uint64_t scrubCorrected = 0;
    /** Uncorrectable (multi-bit) words surfaced by a scrub pass. */
    uint64_t scrubUncorrectable = 0;
    /** Ciphertext checksum verifications performed. */
    uint64_t checksumChecks = 0;
    /** Verifications that caught corrupt residues. */
    uint64_t checksumMismatches = 0;
    /** Checkpoint snapshots taken. */
    uint64_t checkpoints = 0;
    /** Rollbacks to the last checkpoint. */
    uint64_t rollbacks = 0;
    /** Trace segments re-executed by rollback replays. */
    uint64_t replayedSegments = 0;
    /** Detected corruption events with no recovery path left
     *  (checkpointing off or rollback budget exhausted). */
    uint64_t unrecovered = 0;

    // --- Permanent-fault / graceful-degradation counters ---
    /** Codeword accesses landing on permanently failed banks (fail
     *  deterministically on every attempt and generation). */
    uint64_t permanentFaultyWords = 0;
    /** Detected-error events fed to the health monitor. */
    uint64_t healthErrorEvents = 0;
    /** Banks quarantined by the health monitor this run. */
    uint64_t quarantinedBanks = 0;
    /** Quarantine + remap + replay migrations (do not consume the
     *  rollback budget: the fault is removed, not retried). */
    uint64_t migrations = 0;
    /** gpuFallbacks split by cause; the three always sum to
     *  gpuFallbacks. retry_exhausted: ECC retries and rollback budget
     *  both spent. uncheckpointed: no checkpoint to replay from.
     *  capacity_floor: a PIM-eligible op ran on the GPU because PIM
     *  was offline, for either RunResult::pimOffline cause. */
    uint64_t gpuFallbacksRetryExhausted = 0;
    uint64_t gpuFallbacksUncheckpointed = 0;
    uint64_t gpuFallbacksCapacityFloor = 0;
};

/** Whether PIM offload is still in use, and if not, what took it
 *  offline. After either cause the run's remaining PIM-eligible ops
 *  run on the GPU. */
enum class PimOffline {
    Online = 0,
    /** Quarantine drove healthy-bank capacity under
     *  ResilienceConfig::health.minCapacityFraction: the device's
     *  verdict, shared by every trace on it. */
    CapacityFloor = 1,
    /** The degraded memory plan of this run's trace no longer fits the
     *  banks: one trace's verdict. */
    PlanNoLongerFits = 2,
};

struct RunResult {
    double totalNs = 0.0;
    double energyPj = 0.0;
    /** Seconds by paper breakdown category (ElementWise / (I)NTT /
     *  BConv / Automorphism), PIM time listed under "PIM". */
    std::map<std::string, double> timeNsByCategory;
    double gpuDramBytes = 0.0;
    double pimInternalBytes = 0.0;
    ResilienceStats resilience;
    /** Healthy-bank fraction the run ended with (1.0 = no
     *  quarantine). */
    double pimCapacityFraction = 1.0;
    /** Online, or what took PIM offline during the run. */
    PimOffline pimOffline = PimOffline::Online;
    std::vector<GanttEntry> timeline;

    double totalSeconds() const { return totalNs * 1e-9; }
    double energyJoules() const { return energyPj * 1e-12; }
    double edp() const { return totalSeconds() * energyJoules(); }
};

class AnaheimFramework
{
  public:
    explicit AnaheimFramework(const AnaheimConfig &config);

    const AnaheimConfig &config() const { return config_; }

    /** Execute a trace and return time/energy/traffic. Equivalent to
     *  stepping a RunContext to completion (runcontext.h); the serving
     *  scheduler interleaves several contexts instead. */
    RunResult execute(const OpSequence &seq) const;

  private:
    /** Map an element-wise kernel type onto its PIM opcode. */
    static PimOpcode opcodeFor(KernelType type);

    /** The PIM model of this device degraded to `degraded`, a
     *  `config().pim.degraded(...)`. One model per quarantine geometry
     *  (its offline banks, the one field degraded() sets), built on
     *  first use and shared by every run on this framework, so its
     *  prices stay warm.
     *  Thread-safe; the reference lives as long as the framework. */
    const PimKernelModel &degradedPimModel(const PimConfig &degraded) const;

    /** Per-run device state lives in RunContext, which replays the
     *  schedule against this framework's models. */
    friend class RunContext;

    AnaheimConfig config_;
    GpuModel gpu_;
    PimKernelModel pim_;
    mutable std::mutex degradedMutex_;
    /** Degraded models keyed by their offline banks. */
    mutable std::map<std::vector<size_t>, std::unique_ptr<PimKernelModel>>
        degradedPims_;
};

} // namespace anaheim

#endif // ANAHEIM_ANAHEIM_FRAMEWORK_H
