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
#include <string>
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

    /** The op the next step() executes, or nullptr when the next step
     *  is the end-of-trace boundary. */
    const KernelOp *nextOp() const;

    /** True when the next step() dispatches on PIM (offload planned
     *  and the capacity floor has not tripped). */
    bool nextOnPim() const;

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

    /** Healthy-bank fraction right now (1.0 without health
     *  monitoring or quarantine). */
    double capacityFraction() const
    {
        return health_ ? health_->capacityFraction() : 1.0;
    }

    /** Online until quarantine takes PIM offline; then the cause, and
     *  the remaining PIM segments run on the GPU. */
    PimOffline pimOfflineNow() const { return pimOffline_; }

    /** The run's quarantine map, or nullptr when health monitoring is
     *  off. Valid only while the context is alive. */
    const ResourceMap *healthResources() const
    {
        return health_ ? &health_->resources() : nullptr;
    }

    /** Device time of one pass over the live ciphertext footprint (2x
     *  its bytes over the external bus): what a checkpoint, rollback or
     *  migration charges, and what a serving preemption's save and
     *  restore each cost. */
    double snapshotNs() const;

  private:
    enum class FallbackCause { RetryExhausted, Uncheckpointed,
                               CapacityFloor };

    /** What caught the corruption escalate() recovers from. */
    enum class Detector {
        Ecc,      ///< word-boundary ECC, retries spent; op not committed
        Scrub,    ///< a scrub pass surfaced multi-bit retention loss
        Checksum, ///< ciphertext checksums; the outputs have committed
    };

    const PimKernelModel &pimModel() const;
    bool fusesWithPrev(size_t i) const;
    void refreshActiveFaults();
    void record(const std::string &phase, const char *device,
                KernelClass cls, BoundBy bound, const std::string &category,
                double durNs, double energyPj);
    void chargePhase(const char *phase, const char *device, double durNs,
                     double energyPj);
    void chargeSnapshot(const char *phase);
    void runGpu(const KernelOp &op, bool fused = false,
                double writeBackBytes = 0.0, bool writesCached = false);
    void addSilent(uint64_t words);
    bool verifyChecksums(double bytes);
    void surfaceUnrecovered();
    void countFallback(FallbackCause cause);
    /** The escalation ladder (DESIGN.md §10): quarantine + migrate,
     *  else roll back. `next` is one past the last op executed; a
     *  replay from the checkpoint re-runs ops [checkpoint, next). False
     *  when no rung applies: the caller surfaces the event or falls
     *  back to the GPU. */
    bool escalate(Detector detector, size_t next);
    bool recordSuspects(bool banks);
    bool canRollBack() const;
    void rollBack();
    void quarantineAndMigrate();
    void restartAt(size_t i);

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
    std::optional<HealthMonitor> health_;
    size_t activeFailedBanks_ = 0;
    /** The framework's model of the quarantined geometry, or nullptr
     *  while the device is healthy. */
    const PimKernelModel *degradedPim_ = nullptr;
    PimOffline pimOffline_ = PimOffline::Online;

    uint64_t retryStreams_ = 1;
    uint64_t opStreams_ = 1;
    /** Salt offset folded into every transient stream id. */
    uint64_t streamBase_ = 0;

    std::vector<bool> onPimFlags_;
    std::optional<ScrubEngine> scrubber_;
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
