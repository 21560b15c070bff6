#include "planner.h"

namespace anaheim {

MemoryPlan
PimMemoryPlanner::plan(const OpSequence &seq) const
{
    MemoryPlan result;
    for (size_t i = 0; i < seq.ops.size(); ++i) {
        const KernelOp &op = seq.ops[i];
        if (!op.pimEligible)
            continue;
        ++result.pimKernels;

        // Each operand polynomial occupies one row group per limb in
        // its column-group slice; operands sharing a PolyGroup share
        // rows across (up to) the column-group count. Offline banks
        // deepen the row groups: the same chunks stripe over fewer
        // healthy banks.
        const size_t rowsPerRowGroup = pim_.rowsPerRowGroup(dram_, op.n);
        auto rowsFor = [&](const auto &operands) {
            // Limbs per die group (each group holds its own share).
            size_t totalLimbs = 0;
            for (const auto &operand : operands)
                totalLimbs += operand.limbs;
            const size_t limbsPerGroup =
                (totalLimbs + pim_.dieGroups - 1) / pim_.dieGroups;
            // PolyGroups pack polynomials kColumnGroups-wide.
            const size_t packed =
                (limbsPerGroup + PimConfig::kColumnGroups - 1) /
                PimConfig::kColumnGroups;
            return packed * rowsPerRowGroup;
        };
        const size_t rows = rowsFor(op.reads) + rowsFor(op.writes);
        if (rows > result.peakRowsPerBank) {
            result.peakRowsPerBank = rows;
            result.peakOpIndex = i;
        }
    }

    // Per-bank row budget from device capacity: bytes per bank / row.
    const double bankBytes =
        dram_.capacityBytes / static_cast<double>(dram_.totalBanks());
    const size_t rowBudget =
        static_cast<size_t>(bankBytes / dram_.rowBytes);
    result.fits = result.peakRowsPerBank <= rowBudget;
    return result;
}

} // namespace anaheim
