/**
 * @file
 * Column-partitioning data layout (§VI-B): the per-bank geometry of
 * one limb.
 *
 * A die group holds L/S limbs of each polynomial; within a bank, each
 * limb occupies C chunks. Rows are split into column groups (CGs) of
 * 2/4/8 chunks; a limb wraps across the adjacent rows of a row group
 * (RG). A PolyGroup spans several RGs x CGs so that the polynomials an
 * element-wise op touches live in the same rows — which is what bounds
 * the ACT/PRE count per chunk-group iteration (Alg. 1). The kernel
 * model prices from this geometry; PimMemoryPlanner
 * (anaheim/planner.h) sizes each kernel's PolyGroups from it and checks
 * that they fit the banks.
 */

#ifndef ANAHEIM_PIM_LAYOUT_H
#define ANAHEIM_PIM_LAYOUT_H

#include <cstddef>
#include <vector>

#include "dram/timing.h"

namespace anaheim {

class ColumnPartitionLayout
{
  public:
    /**
     * @param config        DRAM geometry.
     * @param banksPerGroup Banks of one die group sharing a limb.
     * @param n             Ring degree.
     * @param columnGroups  Row partition factor (4, 8 or 16).
     * @param offlineBanks  Quarantined bank indices (< banksPerGroup)
     *                      to lay out around: each limb is striped
     *                      over the healthy banks only, so every
     *                      healthy bank absorbs
     *                      ceil(chunks / healthyBanks) chunks per limb.
     *                      With no offline banks and an exactly
     *                      divisible geometry this is the original
     *                      layout bit for bit.
     */
    ColumnPartitionLayout(const DramConfig &config, size_t banksPerGroup,
                          size_t n, size_t columnGroups,
                          std::vector<size_t> offlineBanks = {});

    /** Chunks each *healthy* bank stores per limb (the paper's
     *  example: 16). */
    size_t chunksPerBankPerLimb() const { return chunksPerBank_; }
    size_t chunksPerColumnGroup() const { return chunksPerCg_; }
    size_t rowsPerRowGroup() const { return rowsPerRg_; }
    size_t columnGroups() const { return columnGroups_; }
    /** Banks actually carrying data. */
    size_t healthyBanks() const { return healthyBanks_; }
    const std::vector<size_t> &offlineBanks() const
    {
        return offlineBanks_;
    }

    /**
     * Rows that must be activated per chunk-group iteration when
     * accessing `polysTouched` polynomials laid out in one PolyGroup
     * (column partitioning keeps this at one row group regardless of
     * the polynomial count — the property Alg. 1 exploits).
     */
    size_t actsPerIteration(size_t polysTouched, bool columnPartitioned)
        const;

  private:
    size_t columnGroups_;
    size_t chunksPerCg_;
    size_t chunksPerBank_;
    size_t rowsPerRg_;
    size_t healthyBanks_;
    std::vector<size_t> offlineBanks_;
};

} // namespace anaheim

#endif // ANAHEIM_PIM_LAYOUT_H
