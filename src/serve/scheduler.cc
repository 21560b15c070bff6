#include "scheduler.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "anaheim/runcontext.h"
#include "arrival.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "slo.h"

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

constexpr size_t kNoStream = static_cast<size_t>(-1);

/** Ciphertexts per fused PIM dispatch. */
constexpr size_t kMaxBatch = 8;

/**
 * Binary min-heap of stream ids under `Less`, with every member's slot
 * indexed: O(1) top, O(log n) push and erase of any member, and no
 * allocation once the heap has reached its largest size.
 */
template <class Less>
class StreamHeap
{
  public:
    StreamHeap(size_t streams, Less less)
        : slot_(streams, kNoStream), less_(less)
    {
    }

    bool empty() const { return heap_.empty(); }
    size_t top() const { return heap_.front(); }

    void push(size_t s)
    {
        heap_.push_back(s);
        siftUp(heap_.size() - 1);
    }

    void erase(size_t s)
    {
        const size_t at = slot_[s];
        slot_[s] = kNoStream;
        const size_t last = heap_.back();
        heap_.pop_back();
        if (at == heap_.size())
            return;
        place(at, last);
        siftUp(at);
        siftDown(slot_[last]);
    }

    /** Calls `fn` on every member `pred` accepts. `pred` must reject
     *  everything ordered after a member it rejects, so a rejected
     *  member's subtree is skipped unvisited. */
    template <class Pred, class Fn>
    void forEachWhile(const Pred &pred, const Fn &fn, size_t at = 0) const
    {
        if (at >= heap_.size() || !pred(heap_[at]))
            return;
        fn(heap_[at]);
        forEachWhile(pred, fn, 2 * at + 1);
        forEachWhile(pred, fn, 2 * at + 2);
    }

    /** Appends the K smallest members (all, if fewer) to `out`. */
    template <size_t K>
    void smallest(std::vector<size_t> &out) const
    {
        // Best-first from the root: the next smallest member is always
        // a child of one already taken, so at most K + 1 slots are open.
        std::array<size_t, K + 1> open{};
        size_t count = heap_.empty() ? 0 : 1;
        for (size_t taken = 0; taken < K && count > 0; ++taken) {
            size_t best = 0;
            for (size_t i = 1; i < count; ++i) {
                if (less_(heap_[open[i]], heap_[open[best]]))
                    best = i;
            }
            const size_t at = open[best];
            open[best] = open[--count];
            out.push_back(heap_[at]);
            for (const size_t child : {2 * at + 1, 2 * at + 2}) {
                if (child < heap_.size())
                    open[count++] = child;
            }
        }
    }

  private:
    void place(size_t at, size_t s)
    {
        heap_[at] = s;
        slot_[s] = at;
    }

    void siftUp(size_t at)
    {
        const size_t s = heap_[at];
        while (at > 0) {
            const size_t parent = (at - 1) / 2;
            if (!less_(s, heap_[parent]))
                break;
            place(at, heap_[parent]);
            at = parent;
        }
        place(at, s);
    }

    void siftDown(size_t at)
    {
        const size_t s = heap_[at];
        while (true) {
            size_t child = 2 * at + 1;
            if (child >= heap_.size())
                break;
            if (child + 1 < heap_.size() &&
                less_(heap_[child + 1], heap_[child]))
                ++child;
            if (!less_(heap_[child], s))
                break;
            place(at, heap_[child]);
            at = child;
        }
        place(at, s);
    }

    std::vector<size_t> heap_;
    /** heap_ position of each stream (kNoStream = not a member). */
    std::vector<size_t> slot_;
    Less less_;
};

/** What an indexed stream's next step waits for: ready is
 *  max(run clock, arrival), priority its class. */
struct IndexKey {
    double ready = 0.0;
    size_t priority = 0;
};

/** (priority, stream): the order of streams that all start at once. */
struct ByPriority {
    const IndexKey *keys;
    bool operator()(size_t a, size_t b) const
    {
        return std::tie(keys[a].priority, a) <
               std::tie(keys[b].priority, b);
    }
};

/** (ready, priority, stream). */
struct ByReady {
    const IndexKey *keys;
    bool operator()(size_t a, size_t b) const
    {
        return std::tie(keys[a].ready, keys[a].priority, a) <
               std::tie(keys[b].ready, keys[b].priority, b);
    }
};

/** (priority, ready, stream). */
struct ByPriorityReady {
    const IndexKey *keys;
    bool operator()(size_t a, size_t b) const
    {
        return std::tie(keys[a].priority, keys[a].ready, a) <
               std::tie(keys[b].priority, keys[b].ready, b);
    }
};

/**
 * The dispatch candidates, indexed so every scheduling decision costs
 * O(log S) rather than a walk over all S streams (DESIGN.md §15).
 *
 * A stream with a live run sits in one class by what its next step
 * claims: the GPU, the PIM, or nothing (a cost-free boundary). The
 * GPU and PIM classes split further against their device's free-time
 * horizon (overlap off: one shared horizon):
 *  - waiting: ready <= horizon. Every waiting stream of the class
 *    starts at the horizon, so they order by (priority, stream);
 *  - future: ready > horizon. It starts at its ready time, so these
 *    order by (ready, priority, stream) and, with preemption, also by
 *    (priority, ready, stream).
 * Cost-free streams start at their ready time: always future. A
 * horizon only grows, and an advance moves the future set's
 * ready <= horizon prefix into the waiting set. The winner is the
 * smallest scan key among the set minima; keys are unique per stream,
 * so it is exactly the argmin over every indexed stream. Batchable PIM
 * streams are indexed once more per batch key, with the same two sets.
 */
class DispatchIndex
{
  public:
    /** Step classes; kGpu/kPim double as the device index. */
    enum Class : size_t { kGpu = 0, kPim = 1, kCostFree = 2, kClasses };

    DispatchIndex(const std::vector<size_t> &priorities, bool preemption,
                  bool overlap)
        : preemption_(preemption), overlap_(overlap),
          keys_(priorities.size()), members_(priorities.size())
    {
        for (size_t s = 0; s < priorities.size(); ++s)
            keys_[s].priority = priorities[s];
        for (size_t c = 0; c < kClasses; ++c)
            classes_.emplace_back(priorities.size(), keys_.data());
    }

    // The heaps' comparators point into keys_: a copy would read the
    // original's keys.
    DispatchIndex(const DispatchIndex &) = delete;
    DispatchIndex &operator=(const DispatchIndex &) = delete;

    /** Index stream s's live run; `batchKey` (PIM class only, null =
     *  unbatched) is the op whose shape other streams fuse with. */
    void
    insert(size_t s, Class cls, double ready, const KernelOp *batchKey)
    {
        keys_[s].ready = ready;
        Member &m = members_[s];
        m.cls = cls;
        m.waiting = cls != kCostFree && ready <= horizons_[slotOf(cls)];
        m.batch = batchKey != nullptr ? batchOf(*batchKey) : kNoStream;
        ClassSets &sets = classes_[cls];
        if (m.waiting) {
            sets.waiting.push(s);
            if (m.batch != kNoStream)
                batches_[m.batch].waiting.push(s);
        } else {
            sets.future.push(s);
            if (preemption_)
                sets.futureByPriority.push(s);
            if (m.batch != kNoStream)
                batches_[m.batch].future.push(s);
        }
    }

    /** Drop stream s from the index (no-op when not indexed). */
    void
    erase(size_t s)
    {
        Member &m = members_[s];
        if (m.cls == kClasses)
            return;
        ClassSets &sets = classes_[m.cls];
        m.cls = kClasses;
        if (m.waiting) {
            sets.waiting.erase(s);
            if (m.batch != kNoStream)
                batches_[m.batch].waiting.erase(s);
        } else {
            sets.future.erase(s);
            if (preemption_)
                sets.futureByPriority.erase(s);
            if (m.batch != kNoStream)
                batches_[m.batch].future.erase(s);
        }
    }

    /** Device `dev` (kGpu/kPim) is busy until `ns`: every stream of a
     *  class on that horizon with ready <= ns now starts at ns. */
    void
    advance(Class dev, double ns)
    {
        const size_t slot = slotOf(dev);
        ANAHEIM_ASSERT(ns >= horizons_[slot], "device horizons only grow");
        horizons_[slot] = ns;
        for (const Class cls : {kGpu, kPim}) {
            if (slotOf(cls) != slot)
                continue;
            ClassSets &sets = classes_[cls];
            while (!sets.future.empty() &&
                   keys_[sets.future.top()].ready <= ns) {
                const size_t s = sets.future.top();
                Member &m = members_[s];
                sets.future.erase(s);
                if (preemption_)
                    sets.futureByPriority.erase(s);
                sets.waiting.push(s);
                m.waiting = true;
                if (m.batch != kNoStream) {
                    batches_[m.batch].future.erase(s);
                    batches_[m.batch].waiting.push(s);
                }
            }
        }
    }

    /** The indexed stream minimizing (start, priority, stream) — or
     *  (priority, start, stream) with preemption — and its start;
     *  kNoStream when nothing is indexed. */
    std::pair<size_t, double>
    winner() const
    {
        std::pair<size_t, double> best{kNoStream, 0.0};
        std::tuple<double, double, size_t> bestKey;
        const auto consider = [&](size_t s, double start) {
            const double priority =
                static_cast<double>(keys_[s].priority);
            const std::tuple<double, double, size_t> key =
                preemption_ ? std::tuple(priority, start, s)
                            : std::tuple(start, priority, s);
            if (best.first == kNoStream || key < bestKey) {
                best = {s, start};
                bestKey = key;
            }
        };
        for (const Class cls : {kGpu, kPim, kCostFree}) {
            const ClassSets &sets = classes_[cls];
            if (!sets.waiting.empty())
                consider(sets.waiting.top(), horizons_[slotOf(cls)]);
            if (preemption_ ? sets.futureByPriority.empty()
                            : sets.future.empty())
                continue;
            const size_t s = preemption_ ? sets.futureByPriority.top()
                                         : sets.future.top();
            consider(s, keys_[s].ready);
        }
        return best;
    }

    /** Batch followers of PIM `leader` dispatched at `start`: up to
     *  kMaxBatch - 1 other streams with its batch key that are ready by
     *  `start`, in (priority, stream) order. */
    void
    followers(size_t leader, double start, std::vector<size_t> &out) const
    {
        out.clear();
        const BatchSets &sets = batches_[members_[leader].batch];
        // Waiting members are ready by the horizon <= start; the first
        // kMaxBatch by (priority, stream) hold kMaxBatch - 1 besides
        // the leader.
        sets.waiting.smallest<kMaxBatch>(out);
        sets.future.forEachWhile(
            [&](size_t s) { return keys_[s].ready <= start; },
            [&](size_t s) { out.push_back(s); });
        out.erase(std::remove(out.begin(), out.end(), leader), out.end());
        std::sort(out.begin(), out.end(), ByPriority{keys_.data()});
        if (out.size() > kMaxBatch - 1)
            out.resize(kMaxBatch - 1);
    }

  private:
    /** Where an indexed stream sits. */
    struct Member {
        Class cls = kClasses; ///< kClasses = not indexed
        bool waiting = false;
        size_t batch = kNoStream; ///< batch key id, kNoStream = none
    };

    struct ClassSets {
        ClassSets(size_t streams, const IndexKey *keys)
            : waiting(streams, ByPriority{keys}),
              future(streams, ByReady{keys}),
              futureByPriority(streams, ByPriorityReady{keys})
        {
        }
        StreamHeap<ByPriority> waiting;
        StreamHeap<ByReady> future;
        /** Maintained with preemption only. */
        StreamHeap<ByPriorityReady> futureByPriority;
    };

    /** One batch key's PIM streams, split like their class. */
    struct BatchSets {
        BatchSets(size_t streams, const IndexKey *keys)
            : waiting(streams, ByPriority{keys}),
              future(streams, ByReady{keys})
        {
        }
        StreamHeap<ByPriority> waiting;
        StreamHeap<ByReady> future;
    };

    /** The horizon a GPU/PIM class waits on; overlap off shares one. */
    size_t slotOf(Class cls) const
    {
        return overlap_ && cls == kPim ? 1 : 0;
    }

    /** Batching compatibility: same opcode/shape PIM steps from
     *  different streams fuse into one dispatch. */
    size_t
    batchOf(const KernelOp &op)
    {
        const auto [it, added] = batchIds_.try_emplace(
            std::tuple(op.type, op.n, op.limbs, op.fanIn), batches_.size());
        if (added)
            batches_.emplace_back(keys_.size(), keys_.data());
        return it->second;
    }

    const bool preemption_;
    const bool overlap_;
    /** Device free-time horizons by slotOf(). */
    double horizons_[2] = {0.0, 0.0};
    std::vector<IndexKey> keys_;
    std::vector<Member> members_;
    std::vector<ClassSets> classes_;
    std::vector<BatchSets> batches_;
    std::map<std::tuple<KernelType, size_t, size_t, size_t>, size_t>
        batchIds_;
};

/** One client stream's live scheduling state. */
struct StreamState {
    const OpSequence *trace = nullptr;
    size_t priority = 0;
    /** Relative deadline (<= 0 = deadline-free). */
    double deadlineRelNs = 0.0;
    /** Open-loop arrival timestamps; unused entries for closed-loop. */
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
    /** Completion time of the stream's last finished request — the
     *  release time of the next closed-loop request. */
    double lastEndNs = 0.0;
    /** Per-tenant rate limiter (absent when rateLimitRps == 0). */
    std::optional<TokenBucket> bucket;
    /** Perfetto run id for this stream's track (tracing only). */
    uint32_t runId = 0;
    /** On the engine's activation list. */
    bool activationQueued = false;
};

/** Per-request fault-stream salt: a pure function of the request's
 *  identity, never of the schedule, so batching/overlap toggles leave
 *  every per-request result bit-identical. */
uint64_t
requestSalt(size_t stream, size_t index)
{
    return (static_cast<uint64_t>(stream) << 20) |
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
    void recordServeSpan(uint32_t runId, const char *name,
                         const char *lane, double startNs, double durNs);
    void publishStreamTotals() const;
    void telemetryInit();
    obs::TimeSeries &telemetrySeries(const std::string &suffix);
    void telemetryTickTo(double simNs);
    void telemetryCloseTick();
    void telemetryFinish();

    const AnaheimFramework &fw_;
    const ServeConfig &serve_;
    const std::vector<OpSequence> &traces_;

    ServeResult out_;
    std::vector<StreamState> streams_;
    std::unique_ptr<ServiceEstimator> estimator_;
    bool tracing_ = false;
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
    /** Requests waiting in stream queues, summed over the streams. */
    size_t queued_ = 0;
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

    // --- Time-series telemetry (DESIGN.md §17) ---
    /** telemetry.tickNs > 0 and the process-wide sampling switch is
     *  on; everything below is untouched otherwise. */
    bool telemetry_ = false;
    /** Per-run series name prefix ("serve.run<epoch>.ts.") so series
     *  from successive runs in one process never collide. */
    std::string tsPrefix_;
    /** Event-style series, observed as the run progresses. */
    obs::TimeSeries *tsLatency_ = nullptr;
    obs::TimeSeries *tsDeadlineMet_ = nullptr;
    obs::TimeSeries *tsGoodput_ = nullptr;
    obs::TimeSeries *tsRejectQueueFull_ = nullptr;
    obs::TimeSeries *tsRejectRateLimited_ = nullptr;
    obs::TimeSeries *tsRejectShed_ = nullptr;
    obs::TimeSeries *tsPreemptions_ = nullptr;
    obs::TimeSeries *tsReprices_ = nullptr;
    /** Gauge-style series, sampled once per closed tick. */
    obs::TimeSeries *tsQueueDepth_ = nullptr;
    obs::TimeSeries *tsGpuBusy_ = nullptr;
    obs::TimeSeries *tsPimBusy_ = nullptr;
    obs::TimeSeries *tsFastBurn_ = nullptr;
    obs::TimeSeries *tsSlowBurn_ = nullptr;
    /** Per-tenant queue-depth series for the first
     *  kMaxTenantSeries streams (bounded export size). */
    static constexpr size_t kMaxTenantSeries = 8;
    std::vector<obs::TimeSeries *> tsTenantQueue_;
    std::unique_ptr<obs::BurnRateEvaluator> burn_;
    /** Next tick boundary not yet closed, as a tick index. */
    uint64_t nextTick_ = 0;
    /** Cumulative counters at the last closed tick (deltas feed the
     *  per-tick burn windows and busy fractions). */
    uint64_t lastDeadlineMet_ = 0;
    uint64_t lastResolved_ = 0;
    double lastGpuBusyNs_ = 0.0;
    double lastPimBusyNs_ = 0.0;
    /** Perfetto run id for the engine-global Alert lane (tracing). */
    uint32_t alertRunId_ = 0;
    /** Simulated start of the in-flight alert episode (< 0 = none). */
    double alertStartNs_ = -1.0;
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
ServeEngine::recordServeSpan(uint32_t runId, const char *name,
                             const char *lane, double startNs,
                             double durNs)
{
    if (!tracing_)
        return;
    obs::SimSpan span;
    span.name = name;
    span.lane = lane;
    span.category = "Serve";
    span.run = runId;
    span.startUs = startNs * 1e-3;
    span.durUs = durNs * 1e-3;
    obs::TraceCollector::global().recordSimSpan(std::move(span));
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
        ++queued_;
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
    obs::TimeSeries *series = nullptr;
    switch (cause) {
      case RejectCause::QueueFull:
        ++stats.rejectedQueueFull;
        series = tsRejectQueueFull_;
        break;
      case RejectCause::RateLimited:
        ++stats.rejectedRateLimited;
        series = tsRejectRateLimited_;
        break;
      case RejectCause::DeadlineShed:
        ++stats.shedDeadline;
        series = tsRejectShed_;
        recordServeSpan(streams_[s].runId, "Shed", "Shed", atNs, 0.0);
        break;
      case RejectCause::None:
        ANAHEIM_PANIC("rejection needs a cause");
    }
    if (telemetry_)
        series->observe(atNs, 1.0);
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

// Fill empty run slots from the queues; closed-loop streams release
// their next request the moment the slot frees up. A rejected or shed
// release immediately falls through to the next candidate, so one bad
// request can never wedge its stream (pinned by
// Serve.ClosedLoopRejectionReleasesNext). Only listed streams can have
// work to do; they go in index order, because releases, sheds and
// their telemetry samples and Perfetto spans are recorded in call
// order.
void
ServeEngine::activate()
{
    std::sort(toActivate_.begin(), toActivate_.end());
    for (const size_t s : toActivate_) {
        StreamState &st = streams_[s];
        st.activationQueued = false;
        while (!st.active) {
            if (st.queue.empty()) {
                // A closed-loop stream releases its next request the
                // moment the slot is free — including when the
                // previous release was rejected or shed, so one bad
                // request never strands the rest of the stream.
                if (serve_.arrival != ArrivalKind::Closed ||
                    st.nextArrival >= serve_.requestsPerStream)
                    break;
                const size_t k = st.nextArrival++;
                release(s, k, std::max(now_, st.lastEndNs));
                continue;
            }
            const size_t k = st.queue.front();
            st.queue.pop_front();
            --queued_;
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
                --queued_;
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
 *  its deadline. */
void
ServeEngine::observeHealth(const RunContext &ctx)
{
    const double cap = ctx.capacityFraction();
    const bool offline = ctx.pimOfflineNow();
    if (cap >= worstCapacity_ && (deviceOffline_ || !offline))
        return;
    worstCapacity_ = std::min(worstCapacity_, cap);
    deviceOffline_ = deviceOffline_ || offline;
    ++out_.stats.repriceEvents;
    if (telemetry_)
        tsReprices_->observe(now_, 1.0);
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
        st.lastEndNs = end;
        ++stats.completed;
        req.deadlineMet = end <= req.deadlineNs;
        if (req.deadlineMet)
            ++stats.deadlineMet;
        stats.latenciesNs.push_back(end - req.arrivalNs);
        if (telemetry_) {
            tsLatency_->observe(end, end - req.arrivalNs);
            tsDeadlineMet_->observe(end, req.deadlineMet ? 1.0 : 0.0);
            if (req.deadlineMet)
                tsGoodput_->observe(end, 1.0);
        }
        ServeStreamResult &sr = out_.streams[s];
        sr.pimRetries += req.result.resilience.pimRetries;
        sr.rollbacks += req.result.resilience.rollbacks;
        sr.gpuFallbacks += req.result.resilience.gpuFallbacks;
        sr.migrations += req.result.resilience.migrations;
        sr.unrecovered += req.result.resilience.unrecovered;
        if (tracing_) {
            obs::recordRunTimeline(st.runId, req.result);
            obs::publishRunMetrics(req.result, st.runId);
        } else {
            obs::publishRunMetrics(req.result);
        }
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
            if (telemetry_)
                tsPreemptions_->observe(startNs + overhead, saveNs);
            recordServeSpan(victim.runId, "Save", "Preempt",
                            startNs + overhead, saveNs);
            overhead += saveNs;
        }
    }
    StreamState &st = streams_[winner];
    if (st.preempted) {
        const double restoreNs = st.active->snapshotNs();
        ++stats.preemptionResumes;
        st.preempted = false;
        recordServeSpan(st.runId, "Restore", "Preempt",
                        startNs + overhead, restoreNs);
        overhead += restoreNs;
    }
    stats.preemptionOverheadNs += overhead;
    return overhead;
}

/** Per-stream fault bill under the stream's Perfetto run id. */
void
ServeEngine::publishStreamTotals() const
{
    if (!tracing_)
        return;
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    for (size_t s = 0; s < streams_.size(); ++s) {
        const ServeStreamResult &sr = out_.streams[s];
        const std::string prefix =
            "run." + std::to_string(streams_[s].runId);
        reg.gauge(prefix + ".serve.retries")
            .set(static_cast<double>(sr.pimRetries));
        reg.gauge(prefix + ".serve.rollbacks")
            .set(static_cast<double>(sr.rollbacks));
        reg.gauge(prefix + ".serve.gpu_fallbacks")
            .set(static_cast<double>(sr.gpuFallbacks));
        reg.gauge(prefix + ".serve.migrations")
            .set(static_cast<double>(sr.migrations));
        reg.gauge(prefix + ".serve.unrecovered")
            .set(static_cast<double>(sr.unrecovered));
    }
}

obs::TimeSeries &
ServeEngine::telemetrySeries(const std::string &suffix)
{
    return obs::TimeSeriesRegistry::global().series(
        tsPrefix_ + suffix, serve_.telemetry.tickNs);
}

void
ServeEngine::telemetryInit()
{
    telemetry_ =
        serve_.telemetry.tickNs > 0.0 && obs::seriesSamplingEnabled();
    if (!telemetry_)
        return;
    // Per-run namespace: successive runs in one process (a bench
    // sweep) each get their own serve.run<epoch>.ts.* series.
    const uint64_t epoch =
        obs::TimeSeriesRegistry::global().beginEpoch();
    tsPrefix_ = "serve.run" + std::to_string(epoch) + ".ts.";
    tsLatency_ = &telemetrySeries("latency_ns");
    tsDeadlineMet_ = &telemetrySeries("deadline_met");
    tsGoodput_ = &telemetrySeries("goodput");
    tsRejectQueueFull_ = &telemetrySeries("reject.queue_full");
    tsRejectRateLimited_ = &telemetrySeries("reject.rate_limited");
    tsRejectShed_ = &telemetrySeries("reject.shed");
    tsPreemptions_ = &telemetrySeries("preempt.save_ns");
    tsReprices_ = &telemetrySeries("reprice");
    tsQueueDepth_ = &telemetrySeries("queue_depth");
    tsGpuBusy_ = &telemetrySeries("gpu_busy_frac");
    tsPimBusy_ = &telemetrySeries("pim_busy_frac");
    tsFastBurn_ = &telemetrySeries("slo_fast_burn");
    tsSlowBurn_ = &telemetrySeries("slo_slow_burn");
    const size_t tenants =
        std::min(streams_.size(), kMaxTenantSeries);
    for (size_t s = 0; s < tenants; ++s) {
        tsTenantQueue_.push_back(&telemetrySeries(
            "tenant" + std::to_string(s) + ".queue_depth"));
    }
    obs::BurnRateConfig bc;
    bc.sloTarget = serve_.telemetry.sloTarget;
    bc.fastWindowTicks = serve_.telemetry.fastWindowTicks;
    bc.slowWindowTicks = serve_.telemetry.slowWindowTicks;
    bc.burnThreshold = serve_.telemetry.burnThreshold;
    burn_ = std::make_unique<obs::BurnRateEvaluator>(bc);
    if (tracing_) {
        alertRunId_ =
            obs::TraceCollector::global().beginRun("serve/alerts");
    }
}

/** Close tick `nextTick_`: sample the gauge-style series and feed the
 *  burn-rate evaluator with this tick's (deadline-met, resolved)
 *  deltas. Sampled state is whatever is current when the event loop
 *  crosses the boundary — deterministic, since the loop itself is. */
void
ServeEngine::telemetryCloseTick()
{
    const double tick = serve_.telemetry.tickNs;
    const double windowStart = static_cast<double>(nextTick_) * tick;
    // Observe at the window midpoint so the sample can never land in a
    // neighboring window through floating-point division.
    const double mid = windowStart + 0.5 * tick;
    const ServeStats &stats = out_.stats;

    for (size_t s = 0; s < tsTenantQueue_.size(); ++s) {
        tsTenantQueue_[s]->observe(
            mid, static_cast<double>(streams_[s].queue.size()));
    }
    tsQueueDepth_->observe(mid, static_cast<double>(queued_));
    tsGpuBusy_->observe(mid,
                        (stats.gpuBusyNs - lastGpuBusyNs_) / tick);
    tsPimBusy_->observe(mid,
                        (stats.pimBusyNs - lastPimBusyNs_) / tick);
    lastGpuBusyNs_ = stats.gpuBusyNs;
    lastPimBusyNs_ = stats.pimBusyNs;

    // SLO view of the tick: deadline-met completions over everything
    // that resolved (completions + deadline sheds — a shed IS a missed
    // deadline from the client's seat). Queue-full / rate-limit
    // rejections are admission policy, not SLO failures.
    const uint64_t resolved = stats.completed + stats.shedDeadline;
    const uint64_t good = stats.deadlineMet - lastDeadlineMet_;
    const uint64_t total = resolved - lastResolved_;
    lastDeadlineMet_ = stats.deadlineMet;
    lastResolved_ = resolved;
    const auto eval = burn_->update(good, total);
    tsFastBurn_->observe(mid, eval.fastBurn);
    tsSlowBurn_->observe(mid, eval.slowBurn);
    if (eval.fired)
        alertStartNs_ = windowStart;
    if (eval.resolved && alertStartNs_ >= 0.0) {
        recordServeSpan(alertRunId_, "SLOBurn", "Alert", alertStartNs_,
                        windowStart + tick - alertStartNs_);
        alertStartNs_ = -1.0;
    }
    ++nextTick_;
}

/** Close every tick that ends at or before `simNs`. */
void
ServeEngine::telemetryTickTo(double simNs)
{
    if (!telemetry_)
        return;
    const double tick = serve_.telemetry.tickNs;
    while ((static_cast<double>(nextTick_) + 1.0) * tick <= simNs)
        telemetryCloseTick();
}

void
ServeEngine::telemetryFinish()
{
    if (!telemetry_)
        return;
    ServeStats &stats = out_.stats;
    const double tick = serve_.telemetry.tickNs;
    telemetryTickTo(stats.makespanNs);
    // The run rarely ends on a boundary: close the final partial tick
    // so trailing completions still reach the burn windows.
    if (stats.makespanNs > static_cast<double>(nextTick_) * tick)
        telemetryCloseTick();
    if (burn_->firing() && alertStartNs_ >= 0.0) {
        recordServeSpan(alertRunId_, "SLOBurn", "Alert", alertStartNs_,
                        std::max(stats.makespanNs - alertStartNs_,
                                 0.0));
        alertStartNs_ = -1.0;
    }
    // Materialize trailing idle windows on the event-style series so
    // every series of the run spans the same [0, makespan] range.
    for (obs::TimeSeries *series :
         {tsLatency_, tsDeadlineMet_, tsGoodput_, tsRejectQueueFull_,
          tsRejectRateLimited_, tsRejectShed_, tsPreemptions_,
          tsReprices_})
        series->advanceTo(stats.makespanNs);
    stats.alertsFired = burn_->alertsFired();
    stats.alertsResolved = burn_->alertsResolved();
    stats.alertTicksFiring = burn_->ticksFiring();
}

ServeResult
ServeEngine::run()
{
    OBS_SPAN("serve/run");
    ANAHEIM_ASSERT(!traces_.empty(), "serving needs at least one trace");
    tracing_ = obs::tracingEnabled();

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
        if (tracing_)
            st.runId = obs::TraceCollector::global().beginRun(res.name);
    }
    // Deadline admission needs service prices; without deadlines the
    // estimator (one clean-device execution per trace) is never built
    // and the PR-8 fast path is untouched.
    if (deadlinesEnabled())
        estimator_ = std::make_unique<ServiceEstimator>(fw_.config(),
                                                        traces_);
    telemetryInit();

    // Device occupancy horizons live in the index. With overlap off
    // GPU and PIM share one, which serializes every dispatch
    // system-wide — the back-to-back baseline bench_serving measures
    // speedup against.
    std::vector<size_t> priorities(streams_.size());
    for (size_t s = 0; s < streams_.size(); ++s) {
        priorities[s] = streams_[s].priority;
        if (serve_.arrival == ArrivalKind::OpenPoisson &&
            !streams_[s].arrivals.empty())
            arrivals_.emplace(streams_[s].arrivals.front(), s);
        queueActivation(s);
    }
    index_.emplace(priorities, serve_.preemption, serve_.overlap);

    ServeStats &stats = out_.stats;
    while (true) {
        telemetryTickTo(now_);
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

    telemetryFinish();
    publishServeMetrics(stats);
    publishStreamTotals();
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
}

ServeResult
ServeScheduler::run(const std::vector<OpSequence> &traces) const
{
    return ServeEngine(fw_, serve_, traces).run();
}

void
publishServeMetrics(const ServeStats &stats)
{
    obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
    reg.counter("serve.requests_admitted").add(stats.admitted);
    reg.counter("serve.requests_rejected").add(stats.rejected);
    reg.counter("serve.requests_completed").add(stats.completed);
    reg.counter("serve.rejected_queue_full")
        .add(stats.rejectedQueueFull);
    reg.counter("serve.rejected_rate_limited")
        .add(stats.rejectedRateLimited);
    reg.counter("serve.shed_deadline").add(stats.shedDeadline);
    reg.counter("serve.deadline_met").add(stats.deadlineMet);
    reg.counter("serve.preemptions").add(stats.preemptions);
    reg.counter("serve.preemption_resumes")
        .add(stats.preemptionResumes);
    reg.counter("serve.reprice_events").add(stats.repriceEvents);
    reg.counter("serve.alert.fired").add(stats.alertsFired);
    reg.counter("serve.alert.resolved").add(stats.alertsResolved);
    reg.counter("serve.alert.ticks_firing").add(stats.alertTicksFiring);
    reg.counter("serve.batches").add(stats.batches);
    reg.counter("serve.batched_ops").add(stats.batchedOps);
    reg.gauge("serve.makespan_ns").set(stats.makespanNs);
    reg.gauge("serve.gpu_util").set(stats.gpuUtil());
    reg.gauge("serve.pim_util").set(stats.pimUtil());
    reg.gauge("serve.throughput_rps").set(stats.throughputRps());
    reg.gauge("serve.goodput_rps").set(stats.goodputRps());
    reg.gauge("serve.preemption_overhead_ns")
        .set(stats.preemptionOverheadNs);
    reg.gauge("serve.latency_p50_ns").set(stats.percentileNs(50.0));
    reg.gauge("serve.latency_p99_ns").set(stats.percentileNs(99.0));
}

} // namespace anaheim::serve
