#include "math/automorph.h"

#include <deque>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "math/kernels.h"
#include "math/ntt.h"

namespace anaheim {

namespace {

using Key = std::tuple<size_t, uint64_t, bool>; // (n, k, evalDomain)
using Table = std::shared_ptr<const std::vector<uint64_t>>;

/** Bounded process-wide table cache. Entries are O(n) words and build
 *  in O(n), so construction happens under the lock; eviction is FIFO
 *  (outstanding shared_ptrs keep evicted tables alive). */
struct TableCache {
    std::mutex mu;
    std::map<Key, Table> map;
    std::deque<Key> order;
};

TableCache &
cache()
{
    static TableCache c;
    return c;
}

constexpr size_t kCacheCapacity = 64;

template <class Build>
Table
lookupOrBuild(const Key &key, Build &&build)
{
    TableCache &c = cache();
    std::lock_guard<std::mutex> lock(c.mu);
    auto it = c.map.find(key);
    if (it != c.map.end())
        return it->second;
    Table tbl = build();
    while (c.map.size() >= kCacheCapacity && !c.order.empty()) {
        c.map.erase(c.order.front());
        c.order.pop_front();
    }
    c.map.emplace(key, tbl);
    c.order.push_back(key);
    return tbl;
}

} // namespace

std::shared_ptr<const std::vector<uint64_t>>
coeffAutomorphismTable(size_t n, uint64_t k)
{
    ANAHEIM_ASSERT((k & 1) == 1 && k < 2 * n,
                   "Galois element must be odd and < 2n");
    return lookupOrBuild(Key{n, k, false}, [&] {
        auto tbl = std::make_shared<std::vector<uint64_t>>(n);
        // Invert the scatter c -> (c * k) mod 2n: k odd makes it a
        // bijection on [0, 2n), so every output index is hit once.
        for (size_t c = 0; c < n; ++c) {
            const uint64_t target = (c * k) % (2 * n);
            if (target < n)
                (*tbl)[target] = c;
            else
                (*tbl)[target - n] = c | kernels::kPermuteNegBit;
        }
        return tbl;
    });
}

std::shared_ptr<const std::vector<uint64_t>>
evalAutomorphismTable(const NttTable &table, uint64_t k)
{
    const size_t n = table.degree();
    ANAHEIM_ASSERT((k & 1) == 1 && k < 2 * n,
                   "Galois element must be odd and < 2n");
    return lookupOrBuild(Key{n, k, true}, [&] {
        const auto &exps = table.evalExponents();
        const auto &slotOf = table.slotOfExponent();
        auto tbl = std::make_shared<std::vector<uint64_t>>(n);
        // Slot j of the result evaluates at psi^{e_j * k}; record which
        // input slot holds that evaluation point.
        for (size_t j = 0; j < n; ++j) {
            const uint64_t e = (exps[j] * k) % (2 * n);
            const int32_t srcSlot = slotOf[e];
            ANAHEIM_ASSERT(srcSlot >= 0, "invalid automorphism slot");
            (*tbl)[j] = static_cast<uint64_t>(srcSlot);
        }
        return tbl;
    });
}

} // namespace anaheim
