/**
 * @file
 * PIM memory planner (§V-C "Memory allocation"): because FHE's control
 * flow is static, every PIM kernel's operands can be pre-placed into
 * PolyGroups before execution. The planner walks a trace, sizes the
 * PolyGroup each PIM kernel needs under the column-partitioning layout
 * (PimConfig::rowsPerRowGroup, pim/kernelmodel.h), and checks the peak
 * per-bank row demand against the banks' row budget: it is the one
 * model of whether PIM operands fit. It sizes PIM operand rows only;
 * the paper's device out-of-memory results (§VII-B) do not come from
 * it (EXPERIMENTS.md, known deviations).
 */

#ifndef ANAHEIM_ANAHEIM_PLANNER_H
#define ANAHEIM_ANAHEIM_PLANNER_H

#include "dram/timing.h"
#include "pim/kernelmodel.h"
#include "trace/kernel.h"

namespace anaheim {

struct MemoryPlan {
    /** Peak rows needed simultaneously in one bank by a PIM kernel's
     *  operand PolyGroups. */
    size_t peakRowsPerBank = 0;
    /** Index of the kernel demanding the peak. */
    size_t peakOpIndex = 0;
    /** Number of PIM kernels planned. */
    size_t pimKernels = 0;
    /** Whether the peak fits the per-bank row budget. */
    bool fits = true;
};

class PimMemoryPlanner
{
  public:
    PimMemoryPlanner(const DramConfig &dram, const PimConfig &pim)
        : dram_(dram), pim_(pim)
    {
        pim_.validate(dram_);
    }

    /** Plan a trace: per-kernel PolyGroup sizing and the peak demand.
     *  On a degraded device (`PimConfig::degraded`) every PolyGroup
     *  stripes around the offline banks (more chunks — and rows — per
     *  healthy bank), so the capacity check answers whether the
     *  degraded device still fits the trace before a migration. */
    MemoryPlan plan(const OpSequence &seq) const;

  private:
    DramConfig dram_;
    PimConfig pim_;
};

} // namespace anaheim

#endif // ANAHEIM_ANAHEIM_PLANNER_H
