/**
 * @file
 * The serve loop's dispatch candidates, indexed so every scheduling
 * decision costs O(log S) rather than a walk over all S streams
 * (DESIGN.md §15). `StreamHeap` is the one container underneath;
 * `DispatchIndex` keeps every live run in heaps split against the
 * device free-time horizons and answers the loop's two questions: who
 * dispatches next, and which streams batch with it. The brute-force
 * answers it must equal are in tests/serve/dispatch_index_test.cc.
 */

#ifndef ANAHEIM_SERVE_DISPATCH_INDEX_H
#define ANAHEIM_SERVE_DISPATCH_INDEX_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "trace/kernel.h"

namespace anaheim::serve {

inline constexpr size_t kNoStream = static_cast<size_t>(-1);

/** Ciphertexts per fused PIM dispatch. */
inline constexpr size_t kMaxBatch = 8;

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
 * The dispatch candidates.
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
 * streams are indexed once more per batch key, with the same split.
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
        forEachSets(m, [&](Sets &sets, bool byPriority) {
            sets.add(s, m.waiting, byPriority);
        });
    }

    /** Drop stream s from the index (no-op when not indexed). */
    void
    erase(size_t s)
    {
        Member &m = members_[s];
        if (m.cls == kClasses)
            return;
        forEachSets(m, [&](Sets &sets, bool byPriority) {
            sets.remove(s, m.waiting, byPriority);
        });
        m.cls = kClasses;
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
            Sets &sets = classes_[cls];
            while (!sets.future.empty() &&
                   keys_[sets.future.top()].ready <= ns) {
                const size_t s = sets.future.top();
                Member &m = members_[s];
                forEachSets(m, [&](Sets &each, bool byPriority) {
                    each.remove(s, false, byPriority);
                    each.add(s, true, byPriority);
                });
                m.waiting = true;
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
            const Sets &sets = classes_[cls];
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
        const Sets &sets = batches_[members_[leader].batch];
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

    /** One class's or one batch key's streams, split against their
     *  horizon. */
    struct Sets {
        Sets(size_t streams, const IndexKey *keys)
            : waiting(streams, ByPriority{keys}),
              future(streams, ByReady{keys}),
              futureByPriority(streams, ByPriorityReady{keys})
        {
        }

        void add(size_t s, bool isWaiting, bool byPriority)
        {
            if (isWaiting) {
                waiting.push(s);
                return;
            }
            future.push(s);
            if (byPriority)
                futureByPriority.push(s);
        }

        void remove(size_t s, bool isWaiting, bool byPriority)
        {
            if (isWaiting) {
                waiting.erase(s);
                return;
            }
            future.erase(s);
            if (byPriority)
                futureByPriority.erase(s);
        }

        StreamHeap<ByPriority> waiting;
        StreamHeap<ByReady> future;
        /** Class sets with preemption only: winner()'s future order. */
        StreamHeap<ByPriorityReady> futureByPriority;
    };

    /** Calls fn(sets, byPriority) on the class sets of `m` and, when it
     *  has one, its batch key's sets. */
    template <class Fn>
    void forEachSets(const Member &m, const Fn &fn)
    {
        fn(classes_[m.cls], preemption_);
        if (m.batch != kNoStream)
            fn(batches_[m.batch], false);
    }

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
    std::vector<Sets> classes_;
    std::vector<Sets> batches_;
    std::map<std::tuple<KernelType, size_t, size_t, size_t>, size_t>
        batchIds_;
};

} // namespace anaheim::serve

#endif // ANAHEIM_SERVE_DISPATCH_INDEX_H
