#include "scheduler.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "anaheim/runcontext.h"
#include "arrival.h"
#include "common/logging.h"
#include "dispatch_index.h"
#include "obs/trace.h"
#include "slo.h"
#include "telemetry.h"

namespace anaheim::serve {

double
ServeStats::percentileNs(double p) const
{
    if (latenciesNs.empty())
        return 0.0;
    // Clamp rather than trust the caller: a NaN or out-of-range p
    // would otherwise turn into an out-of-bounds rank below.
    if (!(p > 0.0))
        p = 0.0;
    if (p > 100.0)
        p = 100.0;
    std::vector<double> sorted = latenciesNs;
    std::sort(sorted.begin(), sorted.end());
    if (p == 0.0)
        return sorted.front();
    // Nearest-rank: the smallest latency covering p percent of samples;
    // p > 0 makes ceil() >= 1, so the -1 below cannot wrap.
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
    const size_t idx = static_cast<size_t>(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

double
ServeStats::throughputRps() const
{
    return makespanNs > 0.0
               ? static_cast<double>(completed) / (makespanNs * 1e-9)
               : 0.0;
}

double
ServeStats::goodputRps() const
{
    return makespanNs > 0.0
               ? static_cast<double>(deadlineMet) / (makespanNs * 1e-9)
               : 0.0;
}

double
ServeStats::gpuUtil() const
{
    return makespanNs > 0.0 ? gpuBusyNs / makespanNs : 0.0;
}

double
ServeStats::pimUtil() const
{
    return makespanNs > 0.0 ? pimBusyNs / makespanNs : 0.0;
}

namespace {

/** One client stream's live scheduling state. */
struct StreamState {
    const OpSequence *trace = nullptr;
    size_t priority = 0;
    /** Relative deadline (<= 0 = deadline-free). */
    double deadlineRelNs = 0.0;
    /** Arrival timestamps, ascending (buildArrivals). */
    std::vector<double> arrivals;
    /** Next request index not yet released into the queue. */
    size_t nextArrival = 0;
    /** Admitted requests waiting for the stream's single run slot. */
    std::deque<size_t> queue;
    std::unique_ptr<RunContext> active;
    size_t activeIndex = 0;
    bool activeStarted = false;
    /** Preempted between steps; its next dispatch pays the restore. */
    bool preempted = false;
    /** Per-tenant rate limiter (absent when rateLimitRps == 0). */
    std::optional<TokenBucket> bucket;
    /** On the engine's activation list. */
    bool activationQueued = false;
};

/** Per-request fault-stream salt: a pure function of the request's
 *  identity, never of the schedule, so batching/overlap toggles leave
 *  every per-request result bit-identical. Distinct per request because
 *  the constructor bounds requestsPerStream by kMaxRequestsPerStream. */
uint64_t
requestSalt(size_t stream, size_t index)
{
    return static_cast<uint64_t>(stream) * kMaxRequestsPerStream +
           static_cast<uint64_t>(index);
}

/**
 * The per-run() engine: all the state the dispatch loop threads
 * through — stream slots, device horizons, the SLO machinery — as one
 * object so admission, shedding, preemption and degradation re-pricing
 * can share it without a wall of nested lambdas.
 */
class ServeEngine
{
  public:
    ServeEngine(const AnaheimFramework &fw, const ServeConfig &serve,
                const std::vector<OpSequence> &traces)
        : fw_(fw), serve_(serve), traces_(traces)
    {
    }

    ServeResult run();

  private:
    double deadlineFor(size_t s) const;
    bool deadlinesEnabled() const;
    void release(size_t s, size_t k, double arrivalNs);
    void admitUpTo(double upTo);
    double nextArrivalNs() const;
    void queueActivation(size_t s);
    void activate();
    void reindex(size_t s);
    void reject(size_t s, size_t k, RejectCause cause, double atNs);
    bool wouldMissDeadline(size_t s, size_t k, double startNs) const;
    void shedQueuedMisses();
    void observeHealth(const RunContext &ctx);
    double requestReadyNs(size_t s) const;
    double stepStream(size_t s, double startNs, bool suppressTransition);
    double preemptionOverheadNs(size_t winner, size_t dev, double startNs);

    const AnaheimFramework &fw_;
    const ServeConfig &serve_;
    const std::vector<OpSequence> &traces_;

    ServeResult out_;
    std::vector<StreamState> streams_;
    std::unique_ptr<ServiceEstimator> estimator_;
    /** Series, spans and metrics of the run (telemetry.h). */
    std::optional<ServeTelemetry> recorder_;
    double now_ = 0.0;
    /** The live runs by dispatch class, with the device horizons. */
    std::optional<DispatchIndex> index_;
    /** (next arrival, stream) for every open-loop stream with arrivals
     *  left, earliest on top. */
    std::priority_queue<std::pair<double, size_t>,
                        std::vector<std::pair<double, size_t>>,
                        std::greater<>>
        arrivals_;
    /** Streams whose slot or queue changed since the last activate(). */
    std::vector<size_t> toActivate_;
    /** Scratch: admitUpTo's due streams, a dispatch's followers. */
    std::vector<size_t> due_;
    std::vector<size_t> followers_;
    /** Stream last dispatched per device slot (preemption victim
     *  detection). */
    size_t devLast_[2] = {kNoStream, kNoStream};
    /** Worst healthy-bank fraction observed across all runs — the
     *  scheduler's view of the shared device's degradation. */
    double worstCapacity_ = 1.0;
    bool deviceOffline_ = false;
};

double
ServeEngine::deadlineFor(size_t s) const
{
    const std::vector<double> &classes = serve_.deadlineClassNs;
    return classes.empty() ? 0.0 : classes[s % classes.size()];
}

bool
ServeEngine::deadlinesEnabled() const
{
    for (const double d : serve_.deadlineClassNs) {
        if (d > 0.0)
            return true;
    }
    return false;
}

void
ServeEngine::release(size_t s, size_t k, double arrivalNs)
{
    StreamState &st = streams_[s];
    ServeRequest &req = out_.streams[s].requests[k];
    req.arrivalNs = arrivalNs;
    if (st.deadlineRelNs > 0.0)
        req.deadlineNs = arrivalNs + st.deadlineRelNs;
    // The token bucket is the tenant's front door: an abusive stream
    // is clipped before it can occupy queue capacity.
    if (st.bucket && !st.bucket->tryAcquire(arrivalNs))
        reject(s, k, RejectCause::RateLimited, arrivalNs);
    else if (st.queue.size() >= serve_.maxQueuedPerStream)
        reject(s, k, RejectCause::QueueFull, arrivalNs);
    else {
        st.queue.push_back(k);
        recorder_->enqueued(s);
    }
}

// Release every open-loop arrival with a timestamp <= `upTo`, stream
// by stream in index order: rejections reach telemetry in call order.
void
ServeEngine::admitUpTo(double upTo)
{
    due_.clear();
    while (!arrivals_.empty() && arrivals_.top().first <= upTo) {
        due_.push_back(arrivals_.top().second);
        arrivals_.pop();
    }
    std::sort(due_.begin(), due_.end());
    for (const size_t s : due_) {
        StreamState &st = streams_[s];
        while (st.nextArrival < st.arrivals.size() &&
               st.arrivals[st.nextArrival] <= upTo) {
            const size_t k = st.nextArrival++;
            release(s, k, st.arrivals[k]);
        }
        if (st.nextArrival < st.arrivals.size())
            arrivals_.emplace(st.arrivals[st.nextArrival], s);
        if (!st.active)
            queueActivation(s);
    }
}

// Earliest unreleased open-loop arrival, or +inf.
double
ServeEngine::nextArrivalNs() const
{
    return arrivals_.empty() ? std::numeric_limits<double>::infinity()
                             : arrivals_.top().first;
}

/** Put stream s on the activation list: its run slot freed or its idle
 *  queue gained a request, so the next activate() must look at it. */
void
ServeEngine::queueActivation(size_t s)
{
    if (!streams_[s].activationQueued) {
        streams_[s].activationQueued = true;
        toActivate_.push_back(s);
    }
}

/** Refuse request k of stream s for `cause`: every rejection path
 *  goes through here, so the causes partition `rejected` exactly. */
void
ServeEngine::reject(size_t s, size_t k, RejectCause cause, double atNs)
{
    ServeRequest &req = out_.streams[s].requests[k];
    req.rejected = true;
    req.cause = cause;
    ServeStats &stats = out_.stats;
    ++stats.rejected;
    switch (cause) {
      case RejectCause::QueueFull:
        ++stats.rejectedQueueFull;
        break;
      case RejectCause::RateLimited:
        ++stats.rejectedRateLimited;
        break;
      case RejectCause::DeadlineShed:
        ++stats.shedDeadline;
        break;
      case RejectCause::None:
        ANAHEIM_PANIC("rejection needs a cause");
    }
    recorder_->rejected(s, cause, atNs);
}

/** True when dispatching request k of stream s at `startNs` cannot
 *  meet its deadline even on the estimator's clean-device price — a
 *  guaranteed SLO violation, so execute() time would be wasted. */
bool
ServeEngine::wouldMissDeadline(size_t s, size_t k, double startNs) const
{
    if (!estimator_)
        return false;
    const ServeRequest &req = out_.streams[s].requests[k];
    if (!std::isfinite(req.deadlineNs))
        return false;
    const double earliest = std::max(startNs, req.arrivalNs) +
                            estimator_->estimateNs(s);
    return earliest > req.deadlineNs;
}

// Fill empty run slots from the queues. A request shed at activation
// immediately falls through to the next one queued, so one bad request
// never wedges its stream. Only listed streams can have work to do;
// they go in index order, because sheds and their telemetry samples
// and Perfetto spans are recorded in call order.
void
ServeEngine::activate()
{
    std::sort(toActivate_.begin(), toActivate_.end());
    for (const size_t s : toActivate_) {
        StreamState &st = streams_[s];
        st.activationQueued = false;
        while (!st.active && !st.queue.empty()) {
            const size_t k = st.queue.front();
            st.queue.pop_front();
            recorder_->dequeued(s);
            if (wouldMissDeadline(s, k, now_)) {
                reject(s, k, RejectCause::DeadlineShed, now_);
                continue;
            }
            st.activeIndex = k;
            st.activeStarted = false;
            ++out_.stats.admitted;
            st.active = std::make_unique<RunContext>(
                fw_, *st.trace, requestSalt(s, k));
            reindex(s);
        }
    }
    toActivate_.clear();
}

/** Re-index stream s after its run changed (activated, stepped,
 *  completed or shed); a freed slot goes on the activation list. */
void
ServeEngine::reindex(size_t s)
{
    index_->erase(s);
    const StreamState &st = streams_[s];
    if (!st.active) {
        queueActivation(s);
        return;
    }
    const RunContext &ctx = *st.active;
    const DispatchIndex::Class cls =
        ctx.nextCostFree() ? DispatchIndex::kCostFree
        : ctx.nextOnPim()  ? DispatchIndex::kPim
                           : DispatchIndex::kGpu;
    index_->insert(s, cls, requestReadyNs(s),
                   serve_.batching && cls == DispatchIndex::kPim
                       ? ctx.nextOp()
                       : nullptr);
}

/** Re-check every queued (not yet admitted to a slot) request against
 *  the re-priced estimates: what fit the healthy device may be a
 *  guaranteed miss on the degraded one. */
void
ServeEngine::shedQueuedMisses()
{
    for (size_t s = 0; s < streams_.size(); ++s) {
        StreamState &st = streams_[s];
        std::deque<size_t> keep;
        for (const size_t k : st.queue) {
            if (wouldMissDeadline(s, k, now_)) {
                reject(s, k, RejectCause::DeadlineShed, now_);
                recorder_->dequeued(s);
            } else {
                keep.push_back(k);
            }
        }
        st.queue.swap(keep);
    }
}

/** Degradation awareness: a quarantine (or capacity-floor trip)
 *  observed in ANY run shrinks the scheduler's device view — permanent
 *  damage is a device property shared by every tenant, so all queued
 *  work is re-priced on the degraded geometry and re-checked against
 *  its deadline. Only the capacity floor takes the device's PIM
 *  offline: a run whose own degraded plan no longer fits says nothing
 *  about the other tenants' traces, and the re-pricing already prices
 *  each trace that no longer fits GPU-only. */
void
ServeEngine::observeHealth(const RunContext &ctx)
{
    const double cap = ctx.capacityFraction();
    const bool offline = ctx.pimOfflineNow() == PimOffline::CapacityFloor;
    if (cap >= worstCapacity_ && (deviceOffline_ || !offline))
        return;
    worstCapacity_ = std::min(worstCapacity_, cap);
    deviceOffline_ = deviceOffline_ || offline;
    ++out_.stats.repriceEvents;
    recorder_->repriced(now_);
    if (estimator_) {
        const ResourceMap *resources = ctx.healthResources();
        if (resources != nullptr)
            estimator_->reprice(*resources, deviceOffline_);
        shedQueuedMisses();
    }
}

double
ServeEngine::requestReadyNs(size_t s) const
{
    const StreamState &st = streams_[s];
    const ServeRequest &req = out_.streams[s].requests[st.activeIndex];
    return std::max(st.active->clock(), req.arrivalNs);
}

// One step of stream s dispatched at `startNs`; returns the step's end
// time and finalizes the request when the run completed.
double
ServeEngine::stepStream(size_t s, double startNs, bool suppressTransition)
{
    StreamState &st = streams_[s];
    ServeStats &stats = out_.stats;
    ServeRequest &req = out_.streams[s].requests[st.activeIndex];
    st.active->advanceClockTo(startNs);
    if (!st.activeStarted) {
        st.activeStarted = true;
        req.startNs = startNs;
    }
    st.active->step(suppressTransition);
    const double end = st.active->clock();
    observeHealth(*st.active);
    if (st.active->done()) {
        req.endNs = end;
        req.result = st.active->finish();
        st.active.reset();
        st.preempted = false; // nothing left to restore
        ++stats.completed;
        req.deadlineMet = end <= req.deadlineNs;
        if (req.deadlineMet)
            ++stats.deadlineMet;
        stats.latenciesNs.push_back(end - req.arrivalNs);
        ServeStreamResult &sr = out_.streams[s];
        sr.pimRetries += req.result.resilience.pimRetries;
        sr.rollbacks += req.result.resilience.rollbacks;
        sr.gpuFallbacks += req.result.resilience.gpuFallbacks;
        sr.migrations += req.result.resilience.migrations;
        sr.unrecovered += req.result.resilience.unrecovered;
        recorder_->completed(s, req);
    }
    stats.makespanNs = std::max(stats.makespanNs, end);
    reindex(s);
    return end;
}

/**
 * Preemption bookkeeping at the moment `winner` takes device `dev` at
 * `startNs`: if a started lower-priority run was the device's last
 * occupant, this dispatch preempts it — its live footprint is
 * snapshotted out (RunContext::snapshotNs, the checkpoint price)
 * before the winner's step, and the victim pays the matching restore
 * pass when it next dispatches. Both passes occupy the device
 * but never touch either run's own result, so a preempted run resumes
 * bitwise-identically (pinned by Serve.PreemptedRunResultsIdentical).
 * Returns the overhead to insert before the winner's step.
 */
double
ServeEngine::preemptionOverheadNs(size_t winner, size_t dev,
                                  double startNs)
{
    if (!serve_.preemption)
        return 0.0;
    ServeStats &stats = out_.stats;
    double overhead = 0.0;
    const size_t last = devLast_[serve_.overlap ? dev : 0];
    if (last != kNoStream && last != winner) {
        StreamState &victim = streams_[last];
        // A run whose only remaining step is a cost-free boundary has
        // no device-resident work left to save — not a preemption.
        if (victim.active && victim.activeStarted && !victim.preempted &&
            victim.priority > streams_[winner].priority &&
            !victim.active->nextCostFree()) {
            const double saveNs = victim.active->snapshotNs();
            ++stats.preemptions;
            victim.preempted = true;
            recorder_->saved(last, startNs + overhead, saveNs);
            overhead += saveNs;
        }
    }
    StreamState &st = streams_[winner];
    if (st.preempted) {
        const double restoreNs = st.active->snapshotNs();
        ++stats.preemptionResumes;
        st.preempted = false;
        recorder_->restored(winner, startNs + overhead, restoreNs);
        overhead += restoreNs;
    }
    stats.preemptionOverheadNs += overhead;
    return overhead;
}

ServeResult
ServeEngine::run()
{
    OBS_SPAN("serve/run");
    ANAHEIM_ASSERT(!traces_.empty(), "serving needs at least one trace");

    out_.streams.resize(serve_.streams);
    streams_.resize(serve_.streams);
    const auto arrivals = buildArrivals(serve_);
    for (size_t s = 0; s < serve_.streams; ++s) {
        StreamState &st = streams_[s];
        st.trace = &traces_[s % traces_.size()];
        st.priority = s % serve_.priorityClasses;
        st.deadlineRelNs = deadlineFor(s);
        st.arrivals = arrivals[s];
        if (serve_.rateLimitRps > 0.0)
            st.bucket.emplace(serve_.rateLimitRps,
                              serve_.rateLimitBurst);
        ServeStreamResult &res = out_.streams[s];
        res.name = "serve/" + std::to_string(s) + "/" + st.trace->name;
        res.priority = st.priority;
        res.requests.resize(serve_.requestsPerStream);
        for (size_t k = 0; k < serve_.requestsPerStream; ++k) {
            res.requests[k].stream = s;
            res.requests[k].index = k;
        }
    }
    recorder_.emplace(serve_, out_.streams);
    // Deadline admission needs service prices; without deadlines the
    // estimator (one clean-device execution per trace) is never built
    // and the PR-8 fast path is untouched.
    if (deadlinesEnabled())
        estimator_ = std::make_unique<ServiceEstimator>(fw_.config(),
                                                        traces_);

    // Device occupancy horizons live in the index. With overlap off
    // GPU and PIM share one, which serializes every dispatch
    // system-wide — the back-to-back baseline bench_serving measures
    // speedup against.
    std::vector<size_t> priorities(streams_.size());
    for (size_t s = 0; s < streams_.size(); ++s) {
        priorities[s] = streams_[s].priority;
        if (!streams_[s].arrivals.empty())
            arrivals_.emplace(streams_[s].arrivals.front(), s);
        queueActivation(s);
    }
    index_.emplace(priorities, serve_.preemption, serve_.overlap);

    ServeStats &stats = out_.stats;
    while (true) {
        recorder_->tickTo(now_, stats);
        admitUpTo(now_);
        activate();

        // Candidate = the live run minimizing (start, priority,
        // stream), where start = max(ready, horizon of its device) and
        // a cost-free boundary (end-of-trace, checksums off) starts at
        // its run's own clock; with preemption on, priority outranks
        // start time, so ready high-priority work interleaves ahead of
        // low-priority runs at their next step boundary.
        const auto [best, bestStart] = index_->winner();
        if (best == kNoStream) {
            const double next = nextArrivalNs();
            if (!std::isfinite(next))
                break; // no runs, no queues, no future arrivals
            now_ = next;
            continue;
        }
        // A request arriving before the winner's dispatch may belong
        // in this very decision — admit it and re-evaluate.
        const double pending = nextArrivalNs();
        if (pending <= bestStart) {
            now_ = pending;
            continue;
        }

        StreamState &leader = streams_[best];
        // Deadline shedding at dispatch: the request is only now
        // paying for a device, and even its clean-device estimate from
        // here misses the deadline — drop it instead of burning the
        // device on a guaranteed violation. (Started runs always
        // finish; their partial work would be wasted twice over.)
        if (!leader.activeStarted &&
            wouldMissDeadline(best, leader.activeIndex, bestStart)) {
            reject(best, leader.activeIndex, RejectCause::DeadlineShed,
                   bestStart);
            --stats.admitted; // never held the slot for real
            leader.active.reset();
            reindex(best);
            now_ = std::max(now_, bestStart);
            continue;
        }
        if (leader.active->nextCostFree()) {
            stepStream(best, bestStart, false);
            now_ = std::max(now_, bestStart);
            continue;
        }
        const DispatchIndex::Class dev = leader.active->nextOnPim()
                                             ? DispatchIndex::kPim
                                             : DispatchIndex::kGpu;
        const double overhead =
            preemptionOverheadNs(best, dev, bestStart);
        const double stepStart = bestStart + overhead;
        double end;
        if (dev == DispatchIndex::kPim && serve_.batching) {
            // Fuse compatible PIM steps from other streams into the
            // leader's dispatch: followers run back-to-back inside one
            // launch and skip the GPU<->PIM transition charge.
            index_->followers(best, bestStart, followers_);
            end = stepStream(best, stepStart, false);
            for (const size_t s : followers_)
                end = stepStream(s, end, true);
            if (!followers_.empty()) {
                ++stats.batches;
                stats.batchedOps += followers_.size() + 1;
            }
            stats.pimBusyNs += end - stepStart;
        } else {
            end = stepStream(best, stepStart, false);
            (dev == DispatchIndex::kPim ? stats.pimBusyNs
                                        : stats.gpuBusyNs) +=
                end - stepStart;
        }
        index_->advance(dev, end);
        devLast_[serve_.overlap ? dev : DispatchIndex::kGpu] = best;
        now_ = std::max(now_, bestStart);
    }

    recorder_->finish(out_);
    return std::move(out_);
}

} // namespace

ServeScheduler::ServeScheduler(const AnaheimFramework &fw,
                               const ServeConfig &serve)
    : fw_(fw), serve_(serve)
{
    ANAHEIM_ASSERT(serve_.streams > 0, "serving needs >= 1 stream");
    ANAHEIM_ASSERT(serve_.priorityClasses > 0,
                   "priorityClasses must be >= 1");
    ANAHEIM_ASSERT(serve_.rateLimitRps == 0.0 ||
                       serve_.rateLimitBurst >= 1.0,
                   "rate limiter burst must be >= 1");
    ANAHEIM_ASSERT(serve_.requestsPerStream <= kMaxRequestsPerStream,
                   "requestsPerStream must be <= ", kMaxRequestsPerStream,
                   " so every request draws its own fault stream");
}

ServeResult
ServeScheduler::run(const std::vector<OpSequence> &traces) const
{
    return ServeEngine(fw_, serve_, traces).run();
}

} // namespace anaheim::serve
