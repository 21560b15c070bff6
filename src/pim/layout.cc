#include "layout.h"

#include <algorithm>

#include "common/logging.h"
#include "common/status.h"

namespace anaheim {

ColumnPartitionLayout::ColumnPartitionLayout(const DramConfig &config,
                                             size_t banksPerGroup,
                                             size_t n, size_t columnGroups,
                                             std::vector<size_t> offlineBanks)
    : columnGroups_(columnGroups), offlineBanks_(std::move(offlineBanks))
{
    const size_t chunksPerRow = config.chunksPerRow();
    ANAHEIM_ASSERT(columnGroups >= 1 && chunksPerRow % columnGroups == 0,
                   "column groups must divide the row");
    chunksPerCg_ = chunksPerRow / columnGroups;
    std::sort(offlineBanks_.begin(), offlineBanks_.end());
    offlineBanks_.erase(
        std::unique(offlineBanks_.begin(), offlineBanks_.end()),
        offlineBanks_.end());
    for (const size_t bank : offlineBanks_) {
        ANAHEIM_CHECK(bank < banksPerGroup, InvalidArgument,
                      "offline bank ", bank, " outside the die group's ",
                      banksPerGroup, " banks");
    }
    ANAHEIM_CHECK(offlineBanks_.size() < banksPerGroup,
                  ResourceExhausted,
                  "every bank of the die group is quarantined");
    healthyBanks_ = banksPerGroup - offlineBanks_.size();
    const size_t limbBytes = 4 * n;
    const size_t totalChunks = limbBytes / config.chunkBytes;
    ANAHEIM_ASSERT(totalChunks >= healthyBanks_,
                   "fewer chunks than healthy banks in the die group");
    // Each limb stripes over the healthy banks only; the ceil absorbs
    // the remainder chunks on part of the banks (identical to the
    // floor division whenever the geometry divides exactly, i.e. on
    // every fault-free standard configuration).
    chunksPerBank_ = (totalChunks + healthyBanks_ - 1) / healthyBanks_;
    // A limb occupies one CG slice of rowsPerRg adjacent rows.
    rowsPerRg_ = (chunksPerBank_ + chunksPerCg_ - 1) / chunksPerCg_;
}

size_t
ColumnPartitionLayout::actsPerIteration(size_t polysTouched,
                                        bool columnPartitioned) const
{
    if (columnPartitioned) {
        // All touched polynomials share the row group: the iteration
        // activates each involved PolyGroup's row once (sources grouped
        // into at most two groups plus the destination, Alg. 1).
        return 1;
    }
    // Contiguous allocation: every polynomial lives in its own rows, so
    // each access to a different polynomial reopens a row.
    return polysTouched;
}

} // namespace anaheim
