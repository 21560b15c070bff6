/**
 * @file
 * Per-run execution context: all the device state one trace carries
 * through `AnaheimFramework::execute` — fault streams, checkpoints,
 * health/quarantine, pending corruption, the Gantt timeline — as an
 * explicit object instead of method-local state, so several runs can
 * interleave on one simulated device pair (DESIGN.md §15).
 *
 * `execute()` is exactly `while (!ctx.done()) ctx.step();` followed by
 * `ctx.finish()`. The serving scheduler (src/serve) instead advances
 * many contexts in global simulated-time order, jumping each context's
 * clock to its dispatch time before stepping, which is what lets GPU
 * work of one trace overlap PIM work of another while every per-run
 * result stays a pure function of (config, trace, seeds).
 */

#ifndef ANAHEIM_ANAHEIM_RUNCONTEXT_H
#define ANAHEIM_ANAHEIM_RUNCONTEXT_H

#include <cstdint>
#include <optional>
#include <vector>

#include "anaheim/framework.h"
#include "dram/scrub.h"
#include "pim/kernelmodel.h"
#include "sim/fault.h"
#include "sim/health.h"
#include "trace/kernel.h"

namespace anaheim {

class RunContext
{
  public:
    /**
     * Validates the trace and sets up all per-run state. `fw` and
     * `seq` must outlive the context. `seedSalt` offsets the transient
     * fault stream ids so concurrent requests draw independent upsets
     * from one device-wide fault universe (permanent faults are a
     * device property and stay common to all salts); salt 0 is bitwise
     * identical to a plain execute() run.
     */
    RunContext(const AnaheimFramework &fw, const OpSequence &seq,
               uint64_t seedSalt = 0);

    /** True once the end-of-trace boundary (final verify included) has
     *  fully resolved; finish() is then legal and step() is not. */
    bool done() const { return finished_; }

    double clock() const { return clock_; }

    /** Jump this run's clock forward to global sim time `ns` (the
     *  scheduler's dispatch time). Never moves backwards. */
    void advanceClockTo(double ns);

    const OpSequence &sequence() const { return seq_; }

    /** The op the next step() executes, or nullptr when the next step
     *  is the end-of-trace boundary. */
    const KernelOp *nextOp() const;

    /** True when the next step() dispatches on PIM (offload planned
     *  and the capacity floor has not tripped). */
    bool nextOnPim() const;

    /** "PIM" or "GPU" — the resource the next step() occupies. The
     *  end-of-trace verify is priced on the GPU. */
    const char *nextDevice() const;

    /** True when the next step() consumes no device time at all: the
     *  end-of-trace boundary with checksums disabled. Schedulers may
     *  run it without claiming a resource slot. */
    bool nextCostFree() const;

    /**
     * Execute one scheduling step: the end-of-trace boundary, one
     * recovery action (rollback / quarantine-migrate), or one op with
     * its maintenance preamble — exactly one iteration of the classic
     * execute() loop. `suppressTransition` drops the GPU<->PIM
     * transition charge for a PIM step: batched followers ride the
     * leader's kernel launch.
     */
    void step(bool suppressTransition = false);

    /** Close out the run (health stats, canonical timeline sort) and
     *  surrender the result. Requires done(); call once. */
    RunResult finish();

    // --- Live health / resilience visibility (DESIGN.md §16) ---
    // The serving scheduler polls these after every step so a
    // mid-serve quarantine re-prices all queued work instead of
    // dispatching against the healthy-device plan.

    /** Counters accumulated so far (valid mid-run, unlike finish()). */
    const ResilienceStats &resilienceStats() const
    {
        return result_.resilience;
    }

    /** Healthy-bank fraction right now (1.0 without health
     *  monitoring or quarantine). */
    double capacityFraction() const
    {
        return health_ ? health_->capacityFraction() : 1.0;
    }

    /** True once the capacity floor tripped and remaining PIM
     *  segments run on the GPU. */
    bool pimOfflineNow() const { return pimOffline_; }

    /** The run's quarantine map, or nullptr when health monitoring is
     *  off. Valid only while the context is alive. */
    const ResourceMap *healthResources() const
    {
        return health_ ? &health_->resources() : nullptr;
    }

    /** Live ciphertext footprint in bytes — what a preemption
     *  save/restore pass moves (same quantity a checkpoint snapshots). */
    double liveSnapshotBytes() const { return liveBytes_; }

    /** Bytes-per-ns external bandwidth used to price snapshot-sized
     *  maintenance passes (checkpoint, rollback, preemption). */
    double externalBwBytesPerNs() const { return extBw_; }

  private:
    enum class FallbackCause { RetryExhausted, Uncheckpointed,
                               CapacityFloor };

    const PimKernelModel &pimModel() const;
    bool fusesWithPrev(size_t i) const;
    void refreshActiveFaults();
    void chargePhase(const char *phase, const char *device, double durNs,
                     double energyPj);
    void addSilent(uint64_t words);
    bool canRollBack() const;
    size_t rollBack(size_t i);
    bool verifyChecksums(double bytes);
    void surfaceUnrecovered();
    void countFallback(FallbackCause cause);
    bool recordSuspects(bool banks, bool lanes);
    size_t quarantineAndMigrate(size_t next, size_t resumeAt);

    /** End-of-trace boundary; sets finished_ unless a recovery action
     *  rewound the trace. */
    void stepEndOfTrace();
    /** Time-driven maintenance ahead of op i_; true when a recovery
     *  action consumed the step (the op does not execute). */
    bool runMaintenance();
    void stepPim(const KernelOp &op, bool suppressTransition);
    void stepGpu(const KernelOp &op);

    const AnaheimFramework &fw_;
    const AnaheimConfig &config_;
    const ResilienceConfig &rc_;
    const OpSequence &seq_;

    RunResult result_;
    double clock_ = 0.0;
    bool prevWasPim_ = false;
    bool finished_ = false;
    size_t i_ = 0;

    std::optional<FaultModel> faultModel_;
    size_t totalBanks_ = 0;
    std::vector<FaultSiteId> failedBankSites_;
    std::vector<FaultSiteId> failedLaneSites_;
    std::optional<HealthMonitor> health_;
    size_t activeFailedBanks_ = 0;
    size_t activeFailedLanes_ = 0;
    /** The framework's model of the quarantined geometry, or nullptr
     *  while the device is healthy. */
    const PimKernelModel *degradedPim_ = nullptr;
    bool pimOffline_ = false;

    uint64_t retryStreams_ = 1;
    uint64_t opStreams_ = 1;
    /** Salt offset folded into every transient stream id. */
    uint64_t streamBase_ = 0;

    std::vector<bool> onPimFlags_;
    bool checksumOn_ = false;
    std::optional<ScrubEngine> scrubber_;
    double extBw_ = 1.0;
    double liveBytes_ = 0.0;
    size_t residentWords_ = 0;
    double windowNs_ = 0.0;

    uint64_t generation_ = 0;
    size_t checkpointIndex_ = 0;
    size_t segmentsSinceCkpt_ = 0;
    uint64_t retentionWindow_ = 0;
    double nextScrubNs_ = 0.0;
    uint64_t pendingSilent_ = 0;
    uint64_t pendingRetCorrectable_ = 0;
    uint64_t pendingRetUncorrectable_ = 0;
};

} // namespace anaheim

#endif // ANAHEIM_ANAHEIM_RUNCONTEXT_H
