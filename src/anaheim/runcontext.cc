#include "runcontext.h"

#include <algorithm>

#include "common/logging.h"
#include "planner.h"
#include "trace/validate.h"

namespace anaheim {

namespace {

/** Operand words a PIM op streams through its word-read boundary:
 *  every read operand limb, n words each. */
size_t
pimWordsRead(const KernelOp &op)
{
    size_t limbs = 0;
    for (const auto &operand : op.reads)
        limbs += operand.limbs;
    return std::max<size_t>(limbs, op.limbs) * op.n;
}

/** Result words a PIM op pushes back through the write drivers. */
size_t
pimWordsWritten(const KernelOp &op)
{
    size_t limbs = 0;
    for (const auto &operand : op.writes)
        limbs += operand.limbs;
    return limbs * op.n;
}

/** Live ciphertext footprint: the working/intermediate operand bytes
 *  of the widest op (Evk / plaintext constants are reproducible from
 *  the keys and never need checkpointing or scrubbing). */
double
liveFootprintBytes(const OpSequence &seq)
{
    double live = 0.0;
    for (const KernelOp &op : seq.ops) {
        double bytes = 0.0;
        for (const auto &operand : op.reads) {
            if (operand.kind == OperandKind::Working ||
                operand.kind == OperandKind::Intermediate)
                bytes += operand.limbs * limbBytes(op.n);
        }
        for (const auto &operand : op.writes) {
            if (operand.kind == OperandKind::Working ||
                operand.kind == OperandKind::Intermediate)
                bytes += operand.limbs * limbBytes(op.n);
        }
        live = std::max(live, bytes);
    }
    return live;
}

} // namespace

RunContext::RunContext(const AnaheimFramework &fw, const OpSequence &seq,
                       uint64_t seedSalt)
    : fw_(fw), config_(fw.config_), rc_(fw.config_.resilience), seq_(seq)
{
    checkTrace(seq_);

    // Fault/ECC event model for the PIM datapath. Only constructed
    // when faults are configured: the all-rates-zero path is untouched.
    if (rc_.injectsFaults())
        faultModel_.emplace(rc_);

    // Permanent-fault universe and health monitoring. A failed bank is
    // "active" while it still carries data; once the monitor
    // quarantines it and execution migrates, it stops corrupting.
    // Permanent damage is a device property: it does NOT depend on the
    // stream salt, so concurrent requests see the same broken banks.
    totalBanks_ = config_.pim.banksPerDieGroup * config_.pim.dieGroups;
    if (faultModel_) {
        for (const PermanentBankFault &bank :
             faultModel_->samplePermanentBanks(
                 config_.pim.dieGroups, config_.pim.banksPerDieGroup))
            failedBankSites_.push_back(
                {FaultSiteId::Kind::Bank, bank.dieGroup, bank.bank});
    }
    if (rc_.health.enabled)
        health_.emplace(rc_.health, config_.pim.dieGroups,
                        config_.pim.banksPerDieGroup);
    refreshActiveFaults();

    // Stream ids keep every (generation, op, retry attempt) draw
    // distinct while staying reproducible across runs with the same
    // seed. Generation 0 reproduces the pre-checkpoint stream layout;
    // each rollback bumps the generation so replayed segments resample
    // their transient faults. The salt shifts a whole run onto its own
    // stream range so interleaved requests draw independent upsets.
    retryStreams_ = static_cast<uint64_t>(rc_.maxPimRetries) + 1;
    opStreams_ = static_cast<uint64_t>(seq_.ops.size()) + 1;
    streamBase_ = seedSalt * 0x9E3779B97F4A7C15ULL;

    // One timeline entry per op unless recovery adds phases or replays.
    result_.timeline.reserve(seq_.ops.size());

    // Fusion analysis: op i consumes its predecessor's intermediates
    // from cache when both run on the GPU in the same phase.
    onPimFlags_.resize(seq_.ops.size());
    for (size_t i = 0; i < seq_.ops.size(); ++i) {
        const KernelOp &op = seq_.ops[i];
        onPimFlags_[i] =
            config_.pimEnabled && op.pimEligible &&
            pimInstrSupported(AnaheimFramework::opcodeFor(op.type),
                              op.fanIn, config_.pim.bufferEntries);
    }

    if (rc_.scrub.enabled)
        scrubber_.emplace(config_.dram, rc_.scrub);
    liveBytes_ = liveFootprintBytes(seq_);
    residentWords_ = static_cast<size_t>(liveBytes_ / 4.0);
    windowNs_ = static_cast<double>(config_.dram.timing.tREFI) *
                config_.dram.timing.tCkNs;
    nextScrubNs_ = scrubber_ ? rc_.scrub.intervalNs : 0.0;
}

const PimKernelModel &
RunContext::pimModel() const
{
    return degradedPim_ ? *degradedPim_ : fw_.pim_;
}

bool
RunContext::fusesWithPrev(size_t i) const
{
    // A GPU op reads its GPU predecessor's intermediates from cache
    // when both sit in one phase and they are not both element-wise:
    // ModSwitch chains (INTT -> BConv -> NTT) fuse as in Cheddar/100x
    // [38]. Element-wise chains are BasicFuse's: the trace builders
    // fold them into one kernel (TraceOptions), so an unfused trace
    // pays each link's DRAM round trip.
    if (i == 0 || onPimFlags_[i] || onPimFlags_[i - 1])
        return false;
    const KernelOp &op = seq_.ops[i];
    const KernelOp &prev = seq_.ops[i - 1];
    if (prev.phase != op.phase)
        return false;
    bool readsIntermediate = false;
    for (const auto &operand : op.reads)
        readsIntermediate |= operand.kind == OperandKind::Intermediate;
    if (!readsIntermediate)
        return false;
    return kernelClass(op.type) != KernelClass::ElementWise ||
           kernelClass(prev.type) != KernelClass::ElementWise;
}

void
RunContext::refreshActiveFaults()
{
    activeFailedBanks_ = 0;
    for (const FaultSiteId &site : failedBankSites_)
        activeFailedBanks_ +=
            health_ && health_->isQuarantined(site) ? 0 : 1;
}

inline void
RunContext::record(const std::string &phase, const char *device,
                   KernelClass cls, BoundBy bound,
                   const std::string &category, double durNs,
                   double energyPj)
{
    // Every timeline entry — GPU op, PIM op, PIM->GPU fallback,
    // maintenance phase — starts at the run clock, advances it, and
    // bills its time to one breakdown category.
    const double startNs = clock_;
    clock_ += durNs;
    result_.timeline.push_back(
        {phase, device, cls, startNs, clock_, energyPj, bound});
    result_.timeNsByCategory[category] += durNs;
    result_.energyPj += energyPj;
}

void
RunContext::chargePhase(const char *phase, const char *device,
                        double durNs, double energyPj)
{
    // Maintenance phases get their own Gantt entries and breakdown
    // categories so recovery overhead is visible in the timeline.
    const std::string name(phase);
    record(name, device, KernelClass::ElementWise, BoundBy::None, name,
           durNs, energyPj);
}

double
RunContext::snapshotNs() const
{
    // GB/s is bytes-per-ns at the 1e9 scale, so bytes / bw is ns.
    return liveBytes_ > 0.0
               ? 2.0 * liveBytes_ / config_.dram.externalBwGBs
               : 0.0;
}

void
RunContext::chargeSnapshot(const char *phase)
{
    chargePhase(phase, "DRAM", snapshotNs(),
                2.0 * liveBytes_ * config_.dram.energy.globalIoPerBytePj);
}

void
RunContext::runGpu(const KernelOp &op, bool fused, double writeBackBytes,
                   bool writesCached)
{
    const GpuKernelStats stats =
        fw_.gpu_.run(op, fused, writeBackBytes, writesCached);
    const KernelClass cls = kernelClass(op.type);
    record(tracePhaseName(op.phase), "GPU", cls,
           stats.memoryBound() ? BoundBy::Bandwidth : BoundBy::Compute,
           kernelClassName(cls), stats.timeNs, stats.energyPj);
    result_.gpuDramBytes += stats.traffic.total();
    prevWasPim_ = false;
}

void
RunContext::addSilent(uint64_t words)
{
    if (words == 0)
        return;
    if (rc_.checksumEnabled)
        pendingSilent_ += words;
    else
        result_.resilience.silentErrors += words;
}

bool
RunContext::verifyChecksums(double bytes)
{
    // Verify the ciphertext checksums over `bytes` of residues; true
    // when the data is clean.
    ++result_.resilience.checksumChecks;
    chargePhase("Verify", "GPU", bytes / config_.dram.externalBwGBs,
                bytes * config_.dram.energy.nearBankPerBytePj);
    if (pendingSilent_ + pendingRetUncorrectable_ == 0)
        return true;
    ++result_.resilience.checksumMismatches;
    return false;
}

void
RunContext::surfaceUnrecovered()
{
    ++result_.resilience.unrecovered;
    pendingSilent_ = 0;
    pendingRetUncorrectable_ = 0;
}

void
RunContext::countFallback(FallbackCause cause)
{
    ++result_.resilience.gpuFallbacks;
    switch (cause) {
      case FallbackCause::RetryExhausted:
        ++result_.resilience.gpuFallbacksRetryExhausted;
        break;
      case FallbackCause::Uncheckpointed:
        ++result_.resilience.gpuFallbacksUncheckpointed;
        break;
      case FallbackCause::CapacityFloor:
        ++result_.resilience.gpuFallbacksCapacityFloor;
        break;
    }
}

bool
RunContext::escalate(Detector detector, size_t next)
{
    // Suspects are the still-active permanently failed banks, when the
    // detector can see them: ECC guards the bank arrays, checksums see
    // the banks only when ECC is off, and retention decay has no
    // permanent site at all.
    const bool ecc = detector == Detector::Ecc;
    const bool checksum = detector == Detector::Checksum;
    // With a checkpoint every recovery replays from it. Without one, an
    // ECC-caught op never committed and re-runs itself, while
    // checksum-caught outputs have committed and execution goes on
    // past them.
    const bool snapshot = rc_.checkpoint.enabled;
    const size_t resume = snapshot ? checkpointIndex_ : ecc ? next - 1 : next;
    if (recordSuspects(ecc || (checksum && !rc_.eccEnabled)) &&
        resume < seq_.ops.size()) {
        // 1. Quarantine + migrate off the site that crossed the
        //    permanent threshold. Without a snapshot, committed outputs
        //    are already lost: surface them first.
        if (!snapshot && checksum)
            surfaceUnrecovered();
        quarantineAndMigrate();
    } else if (canRollBack()) {
        // 2. Roll back while the budget lasts.
        rollBack();
    } else {
        // 3. Exhausted: the caller surfaces or falls back to the GPU.
        return false;
    }
    if (snapshot)
        result_.resilience.replayedSegments += next - resume;
    restartAt(resume);
    return true;
}

bool
RunContext::recordSuspects(bool banks)
{
    // Feed a detected error to the health monitor against every
    // permanently failed bank that could have caused it (the detector
    // cannot localize beyond that; already quarantined banks ignore
    // it). Returns true when a bank newly crossed the permanent
    // threshold. Pure transients leave the suspect set empty, so
    // healthy banks are never quarantined by an upset storm.
    if (!health_ || !banks)
        return false;
    bool newlyQuarantined = false;
    for (const FaultSiteId &site : failedBankSites_)
        newlyQuarantined |= health_->recordError(site);
    return newlyQuarantined;
}

bool
RunContext::canRollBack() const
{
    return rc_.checkpoint.enabled &&
           result_.resilience.rollbacks < rc_.checkpoint.maxRollbacks;
}

void
RunContext::rollBack()
{
    // Restore the live footprint from the snapshot region.
    ++result_.resilience.rollbacks;
    chargeSnapshot("Rollback");
}

void
RunContext::quarantineAndMigrate()
{
    // Quarantine + remap: re-plan the trace on the healthy subset and
    // migrate the live footprint onto it. Does NOT consume the rollback
    // budget: the broken site is being removed, not retried. When
    // quarantine leaves too little capacity (the configured floor, or
    // the degraded plan no longer fits), PIM offload is abandoned and
    // the remaining PIM segments are redirected to the GPU.
    ++result_.resilience.migrations;
    refreshActiveFaults();
    // Control-plane cost: remap tables + lockstep re-fusing.
    chargePhase("Quarantine", "DRAM", 1.0e3, 0.0);
    const PimConfig degraded = config_.pim.degraded(health_->resources());
    if (health_->belowCapacityFloor()) {
        pimOffline_ = PimOffline::CapacityFloor;
    } else if (!PimMemoryPlanner(config_.dram, degraded).plan(seq_).fits) {
        pimOffline_ = PimOffline::PlanNoLongerFits;
    } else {
        degradedPim_ = &fw_.degradedPimModel(degraded);
        // One pass over the live footprint into the new layout.
        chargeSnapshot("Migrate");
        return;
    }
    degradedPim_ = nullptr;
}

void
RunContext::restartAt(size_t i)
{
    // The restored (or migrated) state is clean: drop all in-flight
    // corruption, and start a new generation so replayed ops resample
    // their transient faults.
    ++generation_;
    pendingSilent_ = 0;
    pendingRetCorrectable_ = 0;
    pendingRetUncorrectable_ = 0;
    segmentsSinceCkpt_ = 0;
    prevWasPim_ = false;
    i_ = i;
}

void
RunContext::advanceClockTo(double ns)
{
    ANAHEIM_ASSERT(ns >= clock_, "run clock cannot move backwards");
    clock_ = ns;
}

const KernelOp *
RunContext::nextOp() const
{
    return i_ < seq_.ops.size() ? &seq_.ops[i_] : nullptr;
}

bool
RunContext::nextOnPim() const
{
    return i_ < seq_.ops.size() && onPimFlags_[i_] &&
           pimOffline_ == PimOffline::Online;
}

bool
RunContext::nextCostFree() const
{
    return i_ >= seq_.ops.size() && !rc_.checksumEnabled;
}

void
RunContext::stepEndOfTrace()
{
    // End-of-trace boundary: the final outputs get one last
    // verification before they are decrypted.
    if (rc_.checksumEnabled && !verifyChecksums(liveBytes_)) {
        if (escalate(Detector::Checksum, i_))
            return;
        surfaceUnrecovered();
    }
    finished_ = true;
}

bool
RunContext::runMaintenance()
{
    ResilienceStats &res = result_.resilience;
    // Retention decay accumulates on the resident footprint per
    // crossed refresh window; windows are keyed by absolute index,
    // so replays never resample a window already paid for.
    if (faultModel_ && rc_.retentionBerPerWindow > 0.0 &&
        windowNs_ > 0.0) {
        const uint64_t window =
            static_cast<uint64_t>(clock_ / windowNs_);
        while (retentionWindow_ < window) {
            ++retentionWindow_;
            const FaultEventCounts decay = faultModel_->sampleRetention(
                retentionWindow_, residentWords_);
            res.retentionFaultyWords += decay.faulty;
            if (!rc_.eccEnabled) {
                // Raw arrays: decay is indistinguishable from data.
                addSilent(decay.faulty);
            } else {
                pendingRetCorrectable_ += decay.singleBit;
                pendingRetUncorrectable_ += decay.multiBit;
            }
        }
    }
    if (scrubber_ && clock_ >= nextScrubNs_) {
        // One pass covers every missed interval (a long GPU kernel
        // may straddle several).
        while (clock_ >= nextScrubNs_)
            nextScrubNs_ += rc_.scrub.intervalNs;
        ++res.scrubPasses;
        const ScrubPassStats pass = scrubber_->pass(liveBytes_);
        chargePhase("Scrub", "DRAM", pass.timeNs, pass.energyPj);
        res.scrubCorrected += pendingRetCorrectable_;
        pendingRetCorrectable_ = 0;
        if (pendingRetUncorrectable_ > 0) {
            res.scrubUncorrectable += pendingRetUncorrectable_;
            pendingRetUncorrectable_ = 0;
            if (escalate(Detector::Scrub, i_))
                return true;
            surfaceUnrecovered();
        }
    }
    if (rc_.checkpoint.enabled && i_ > checkpointIndex_ &&
        segmentsSinceCkpt_ >= rc_.checkpoint.intervalSegments) {
        // Verify before snapshotting: never checkpoint corrupt
        // state, or rollback would replay the corruption forever.
        if (rc_.checksumEnabled && !verifyChecksums(liveBytes_)) {
            if (escalate(Detector::Checksum, i_))
                return true;
            surfaceUnrecovered();
            segmentsSinceCkpt_ = 0; // retry next interval
        } else {
            ++res.checkpoints;
            chargeSnapshot("Checkpoint");
            checkpointIndex_ = i_;
            segmentsSinceCkpt_ = 0;
        }
    }
    return false;
}

void
RunContext::stepPim(const KernelOp &op, bool suppressTransition)
{
    ResilienceStats &res = result_.resilience;
    const PimExecStats stats = pimModel().execute(
        AnaheimFramework::opcodeFor(op.type), op.fanIn, op.limbs, op.n);
    ANAHEIM_ASSERT(stats.supported, "unsupported PIM instruction");
    // GPU<->PIM transition overhead (§V-C) applies once per PIM
    // kernel; consecutive PIM instructions share one kernel, and a
    // batched follower rides the leader's launch.
    const double transitionNs =
        prevWasPim_ || suppressTransition ? 0.0 : 2.0e3;

    // One initial attempt, plus replays charged at full price for
    // every detected-uncorrectable ECC event, until the retry budget
    // is spent and the op escalates (§VI-A datapath riding raw DRAM
    // arrays).
    double pimNs = stats.timeNs + transitionNs;
    double pimEnergyPj = stats.energyPj;
    double pimChunks = stats.chunksMoved;
    bool exhausted = false;
    if (faultModel_) {
        const uint64_t opStream =
            streamBase_ + generation_ * opStreams_ + i_;
        // Permanent-bank damage is deterministic: the same
        // share of the op's accesses lands on dead banks on
        // every attempt and every generation — only a remap
        // (or retirement of the banks) makes it go away.
        const size_t words = pimWordsRead(op) + pimWordsWritten(op);
        const uint64_t permWords = permanentFaultyWords(
            words, activeFailedBanks_, totalBanks_);
        if (rc_.ber > 0.0 || permWords > 0) {
            // Storage sites: operand reads plus the result
            // write-back ride the same ECC boundary.
            for (uint64_t attempt = 0;; ++attempt) {
                const FaultEventCounts events = faultModel_->sampleEvents(
                    words, opStream * retryStreams_ + attempt);
                res.faultyWords += events.faulty + permWords;
                res.permanentFaultyWords += permWords;
                if (!rc_.eccEnabled) {
                    // Nothing at the word boundary detects the
                    // corruption: no retry signal; checksums
                    // are the only remaining net.
                    addSilent(events.faulty + permWords);
                    break;
                }
                res.eccCorrected += events.singleBit;
                const uint64_t multi = events.multiBit + permWords;
                if (multi == 0)
                    break;
                res.eccUncorrectable += multi;
                if (attempt >= rc_.maxPimRetries) {
                    exhausted = true;
                    break;
                }
                ++res.pimRetries;
                pimNs += stats.timeNs;
                pimEnergyPj += stats.energyPj;
                pimChunks += stats.chunksMoved;
            }
        }
        if (rc_.laneBer > 0.0 && !exhausted) {
            // Post-multiply lane flips: no ECC reaches the
            // 28-bit datapath, so every hit is silent here.
            const FaultEventCounts lane = faultModel_->sampleLaneEvents(
                static_cast<size_t>(op.modMults()), opStream);
            res.laneFaults += lane.faulty;
            addSilent(lane.faulty);
        }
    }

    // Near-bank PIM time is internal-streaming limited by construction
    // (§VI-A all-bank lockstep).
    record(tracePhaseName(op.phase), "PIM", kernelClass(op.type),
           BoundBy::Bandwidth, "PIM", pimNs, pimEnergyPj);
    result_.pimInternalBytes += pimChunks * config_.dram.chunkBytes;
    prevWasPim_ = true;

    if (exhausted) {
        if (escalate(Detector::Ecc, i_ + 1))
            return;
        // The op's PIM result is untrustworthy even after the replays:
        // re-run it on the GPU (unfused — its operands live in DRAM,
        // not the cache).
        countFallback(rc_.checkpoint.enabled
                          ? FallbackCause::RetryExhausted
                          : FallbackCause::Uncheckpointed);
        runGpu(op);
    } else if (rc_.checksumEnabled && i_ + 1 < seq_.ops.size() &&
               !onPimFlags_[i_ + 1]) {
        // Coherence write-back boundary (§V-C): the GPU is
        // about to consume this segment's outputs — verify
        // their checksums before corruption can propagate.
        if (!verifyChecksums(op.writeBytes())) {
            if (escalate(Detector::Checksum, i_ + 1))
                return;
            surfaceUnrecovered();
        }
    }
    ++i_;
    ++segmentsSinceCkpt_;
}

void
RunContext::stepGpu(const KernelOp &op)
{
    // PIM-eligible ops arriving after PIM went offline (either cause)
    // are redirected here; each redirection is a counted fallback.
    if (onPimFlags_[i_] && pimOffline_ != PimOffline::Online)
        countFallback(FallbackCause::CapacityFloor);

    const bool fused = fusesWithPrev(i_);
    const bool writesCached =
        i_ + 1 < seq_.ops.size() && fusesWithPrev(i_ + 1);

    // Coherence write-backs (§V-C): a GPU kernel whose outputs feed
    // a PIM kernel must push them out of the L2 first.
    double writeBack = 0.0;
    if (config_.pimEnabled && pimOffline_ == PimOffline::Online &&
        i_ + 1 < seq_.ops.size() && onPimFlags_[i_ + 1]) {
        for (const auto &operand : op.writes) {
            if (operand.kind == OperandKind::Intermediate)
                writeBack += operand.limbs * limbBytes(op.n);
        }
    }
    runGpu(op, fused, writeBack, writesCached);
    ++i_;
    ++segmentsSinceCkpt_;
}

void
RunContext::step(bool suppressTransition)
{
    ANAHEIM_ASSERT(!finished_, "step() after the run completed");
    if (i_ >= seq_.ops.size()) {
        stepEndOfTrace();
        return;
    }
    // --- Time-driven maintenance ahead of op i ---
    if (runMaintenance())
        return; // a recovery action rewound the trace
    const KernelOp &op = seq_.ops[i_];
    if (onPimFlags_[i_] && pimOffline_ == PimOffline::Online)
        stepPim(op, suppressTransition);
    else
        stepGpu(op);
}

RunResult
RunContext::finish()
{
    ANAHEIM_ASSERT(finished_, "finish() before the run completed");
    if (health_) {
        ResilienceStats &res = result_.resilience;
        res.healthErrorEvents = health_->errorEvents();
        res.quarantinedBanks = health_->resources().quarantinedBanks();
        result_.pimCapacityFraction = health_->capacityFraction();
    }
    result_.pimOffline = pimOffline_;
    result_.totalNs = clock_;
    // Canonical timeline order — (startNs, device, phase) — so trace
    // exports and golden comparisons are reproducible regardless of
    // host thread count or future scheduler changes. Execution already
    // appends in start order, so the sort usually has nothing to do.
    canonicalizeTimeline(result_.timeline);
    return std::move(result_);
}

} // namespace anaheim
