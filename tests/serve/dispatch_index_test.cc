/**
 * @file
 * Differential tests of the serve loop's dispatch index: seeded random
 * insert / erase / advance sequences over every preemption x overlap x
 * batching setting, where after every operation the index's winner and
 * batch followers must equal a brute-force scan over its members; and
 * StreamHeap against a sorted vector.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "serve/dispatch_index.h"

namespace anaheim::serve {
namespace {

using Class = DispatchIndex::Class;

constexpr size_t kStreams = 24;

/** What the test inserted for one stream. */
struct Member {
    bool indexed = false;
    Class cls = DispatchIndex::kGpu;
    double ready = 0.0;
    size_t priority = 0;
    const KernelOp *batch = nullptr;
};

/** Three PIM op shapes; streams batch when they share one. */
std::vector<KernelOp>
batchShapes()
{
    std::vector<KernelOp> ops(3);
    ops[0].type = KernelType::EwAdd;
    ops[1].type = KernelType::EwMult;
    ops[2].type = KernelType::EwMult;
    for (KernelOp &op : ops) {
        op.n = 1 << 12;
        op.limbs = 8;
    }
    ops[2].limbs = 4;
    return ops;
}

/** The brute-force twin of one DispatchIndex: its members and device
 *  horizons, and the answers a scan over them gives. */
struct Oracle {
    bool preemption;
    bool overlap;
    std::vector<Member> members;
    double horizons[2] = {0.0, 0.0};

    size_t slotOf(Class cls) const
    {
        return overlap && cls == DispatchIndex::kPim ? 1 : 0;
    }

    /** A cost-free step starts when ready; a device step also waits for
     *  its device. */
    double startOf(const Member &m) const
    {
        return m.cls == DispatchIndex::kCostFree
                   ? m.ready
                   : std::max(m.ready, horizons[slotOf(m.cls)]);
    }

    std::pair<size_t, double> winner() const
    {
        std::pair<size_t, double> best{kNoStream, 0.0};
        std::tuple<double, double, size_t> bestKey;
        for (size_t s = 0; s < members.size(); ++s) {
            const Member &m = members[s];
            if (!m.indexed)
                continue;
            const double start = startOf(m);
            const double priority = static_cast<double>(m.priority);
            const auto key = preemption ? std::tuple(priority, start, s)
                                        : std::tuple(start, priority, s);
            if (best.first == kNoStream || key < bestKey) {
                best = {s, start};
                bestKey = key;
            }
        }
        return best;
    }

    /** The first kMaxBatch - 1, by (priority, stream), of the other
     *  members with the leader's batch shape that are ready by
     *  `start`. */
    std::vector<size_t> followers(size_t leader, double start) const
    {
        std::vector<size_t> out;
        for (size_t s = 0; s < members.size(); ++s) {
            const Member &m = members[s];
            if (s != leader && m.indexed &&
                m.batch == members[leader].batch && m.ready <= start)
                out.push_back(s);
        }
        std::sort(out.begin(), out.end(), [&](size_t a, size_t b) {
            return std::tie(members[a].priority, a) <
                   std::tie(members[b].priority, b);
        });
        if (out.size() > kMaxBatch - 1)
            out.resize(kMaxBatch - 1);
        return out;
    }
};

/** Checks the index against the oracle: the winner, and the followers
 *  of every batched member as the leader of a dispatch at its start. */
void
expectMatches(const DispatchIndex &index, const Oracle &oracle,
              const std::string &where)
{
    const auto want = oracle.winner();
    const auto got = index.winner();
    ASSERT_EQ(got.first, want.first) << where;
    if (want.first != kNoStream) {
        ASSERT_EQ(got.second, want.second) << where;
    }
    std::vector<size_t> followers;
    for (size_t s = 0; s < oracle.members.size(); ++s) {
        const Member &m = oracle.members[s];
        if (!m.indexed || m.batch == nullptr)
            continue;
        const double start = oracle.startOf(m);
        index.followers(s, start, followers);
        ASSERT_EQ(followers, oracle.followers(s, start))
            << where << ", leader " << s << " at " << start;
    }
}

TEST(DispatchIndex, WinnerAndFollowersMatchBruteForce)
{
    const std::vector<KernelOp> shapes = batchShapes();
    for (size_t config = 0; config < 8; ++config) {
        const bool preemption = (config & 1) != 0;
        const bool overlap = (config & 2) != 0;
        const bool batching = (config & 4) != 0;
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            std::mt19937_64 rng(seed * 8 + config);
            const auto draw = [&](uint64_t n) { return rng() % n; };
            Oracle oracle{preemption, overlap, {}, {0.0, 0.0}};
            oracle.members.resize(kStreams);
            std::vector<size_t> priorities(kStreams);
            for (size_t s = 0; s < kStreams; ++s) {
                priorities[s] = draw(3);
                oracle.members[s].priority = priorities[s];
            }
            DispatchIndex index(priorities, preemption, overlap);
            for (size_t op = 0; op < 400; ++op) {
                const size_t s = draw(kStreams);
                Member &m = oracle.members[s];
                const uint64_t what = draw(10);
                std::string where = "config " + std::to_string(config) +
                                    " seed " + std::to_string(seed) +
                                    " op " + std::to_string(op);
                if (what < 2) {
                    // Horizons only grow; small steps and ready times on
                    // one grid make ties with the horizon common.
                    const Class dev = draw(2) == 0 ? DispatchIndex::kGpu
                                                   : DispatchIndex::kPim;
                    double &horizon = oracle.horizons[oracle.slotOf(dev)];
                    horizon += static_cast<double>(draw(4));
                    index.advance(dev, horizon);
                    where += " advance";
                } else if (m.indexed && what < 5) {
                    index.erase(s);
                    m.indexed = false;
                    where += " erase";
                } else {
                    // Re-index the way the serve loop does: erase, then
                    // insert the run's next step.
                    index.erase(s);
                    m.indexed = true;
                    m.cls = static_cast<Class>(draw(3));
                    m.ready = oracle.horizons[draw(2)] +
                              static_cast<double>(draw(7)) - 3.0;
                    m.batch = batching && m.cls == DispatchIndex::kPim
                                  ? &shapes[draw(shapes.size())]
                                  : nullptr;
                    index.insert(s, m.cls, m.ready, m.batch);
                    where += " insert";
                }
                expectMatches(index, oracle, where);
                if (testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(StreamHeap, MatchesSortedVector)
{
    std::vector<IndexKey> keys(40);
    std::mt19937_64 rng(7);
    for (IndexKey &key : keys) {
        key.ready = static_cast<double>(rng() % 10);
        key.priority = rng() % 3;
    }
    const ByReady less{keys.data()};
    StreamHeap<ByReady> heap(keys.size(), less);
    std::vector<size_t> members;
    for (size_t op = 0; op < 2000; ++op) {
        const size_t s = rng() % keys.size();
        const auto it = std::find(members.begin(), members.end(), s);
        if (it == members.end()) {
            heap.push(s);
            members.push_back(s);
        } else {
            // Erase anywhere in the heap, not just the top.
            heap.erase(s);
            members.erase(it);
        }
        std::sort(members.begin(), members.end(), less);

        ASSERT_EQ(heap.empty(), members.empty());
        if (members.empty())
            continue;
        ASSERT_EQ(heap.top(), members.front()) << "op " << op;

        std::vector<size_t> smallest;
        heap.smallest<5>(smallest);
        const std::vector<size_t> want(
            members.begin(),
            members.begin() + std::min<size_t>(5, members.size()));
        ASSERT_EQ(smallest, want) << "op " << op;

        const double limit = static_cast<double>(rng() % 10);
        std::vector<size_t> visited;
        heap.forEachWhile([&](size_t m) { return keys[m].ready <= limit; },
                          [&](size_t m) { visited.push_back(m); });
        std::sort(visited.begin(), visited.end(), less);
        std::vector<size_t> ready;
        for (const size_t m : members) {
            if (keys[m].ready <= limit)
                ready.push_back(m);
        }
        ASSERT_EQ(visited, ready) << "op " << op << " limit " << limit;
    }
}

} // namespace
} // namespace anaheim::serve
