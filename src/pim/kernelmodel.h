/**
 * @file
 * Timing and energy model of Anaheim PIM kernels.
 *
 * PimConfig is the one model of the device's geometry, the
 * column-partitioning layout of §VI-B included: a degree-N limb stripes
 * over a die group's healthy banks, and each row splits into
 * PimConfig::kColumnGroups column groups (CGs). A limb wraps across
 * the adjacent rows of a row group (RG); a PolyGroup spans several
 * RGs x CGs, so the polynomials an element-wise op touches share rows,
 * which bounds the ACT/PRE count per chunk-group iteration (Alg. 1).
 * The kernel model prices from this geometry, and PimMemoryPlanner
 * (anaheim/planner.h) sizes each kernel's PolyGroups from it.
 *
 * Near-bank PIM (§VI-A) simulates the per-bank command stream of the
 * fused Alg.-1 execution through the dram BankEngine — all banks run in
 * lockstep during all-bank operation, so one bank's schedule is the
 * device's. The custom-HBM variant (§VI-D) places one PIM unit per
 * several banks on the logic die: ACT/PRE latencies hide behind the
 * other banks' streaming, at a lower aggregate internal bandwidth
 * (Table III: 4x vs 16x the external bandwidth on A100).
 *
 * An instruction's price is a pure function of its shape and the
 * model's configuration, so each model prices a shape once and replays
 * the stored result (DESIGN.md §18).
 */

#ifndef ANAHEIM_PIM_KERNELMODEL_H
#define ANAHEIM_PIM_KERNELMODEL_H

#include <mutex>
#include <unordered_map>
#include <vector>

#include "dram/bank.h"
#include "dram/timing.h"
#include "isa.h"
#include "sim/health.h"

namespace anaheim {

enum class PimVariant { NearBank, CustomHbm };

struct PimConfig {
    /** Column groups each DRAM row splits into (§VI-B). */
    static constexpr size_t kColumnGroups = 8;

    PimVariant variant = PimVariant::NearBank;
    /** Data-buffer entries per PIM unit (B of §VI-A / Fig. 9). */
    size_t bufferEntries = 16;
    /** PIM unit clock in GHz (Table III). */
    double clockGHz = 0.378;
    /** Banks sharing one PIM unit (1 for near-bank). */
    size_t banksPerUnit = 1;
    /** Banks of one die group that share each limb (§VI-B). */
    size_t banksPerDieGroup = 512;
    /** Number of die groups working on different limbs in parallel. */
    size_t dieGroups = 5;
    /** MMAC lanes per unit (matches the 256-bit global I/O). */
    size_t lanes = 8;
    /** Use the column-partitioning layout (off for the w/o-CP
     *  sensitivity study, Fig. 10). */
    bool columnPartition = true;
    /** Energy per modular multiply-accumulate, pJ (ASAP7-derived with
     *  the paper's conservative DRAM-process compensation). */
    double mmacEnergyPj = 1.5;

    /**
     * Degraded-mode state (set by the framework after a health-driven
     * quarantine; empty/zero on a healthy device). Because all banks
     * of a die group run in lockstep, the device degrades to the
     * *worst* group: `offlineBanks` holds that group's quarantined
     * bank indices, each once — each limb stripes over the remaining
     * healthy banks (more chunks per bank, so longer lockstep
     * streams), and energy only charges the banks that still switch.
     */
    std::vector<size_t> offlineBanks;
    /** Quarantined MMAC lanes per unit: the surviving lanes absorb the
     *  dead lanes' multiplies, stretching the chunk cadence by
     *  lanes / healthyLanes(). */
    size_t quarantinedLanes = 0;

    /** Rejects a quarantine set no layout exists for: InvalidArgument
     *  for an offline bank outside the die group or listed twice,
     *  ResourceExhausted when every bank is offline. PimKernelModel
     *  and PimMemoryPlanner run it when built. */
    void validate(const DramConfig &dram) const;

    /** Banks of a die group still carrying data (at least one on a
     *  validated config). */
    size_t healthyBanksPerDieGroup() const
    {
        return banksPerDieGroup - offlineBanks.size();
    }
    size_t healthyLanes() const
    {
        return lanes > quarantinedLanes ? lanes - quarantinedLanes : 1;
    }
    /** Chunks each healthy bank holds of one degree-n limb: the limb's
     *  chunks spread over the healthy banks, rounded up (§VI-B's
     *  example: 16 at n = 2^16 on 512 banks). */
    size_t chunksPerBank(const DramConfig &dram, size_t n) const;
    /** Adjacent rows one degree-n limb takes in its column-group
     *  slice. */
    size_t rowsPerRowGroup(const DramConfig &dram, size_t n) const;

    /** Config degraded by a quarantine set: the worst die group's
     *  offline banks (lockstep makes it the device bottleneck) and its
     *  quarantined lane count, clamped so at least one bank and one
     *  lane survive. Identity when nothing is quarantined. */
    PimConfig degraded(const ResourceMap &resources) const;

    /** Near-bank A100 configuration (Table III column 1). */
    static PimConfig nearBankA100();
    /** Custom-HBM A100 configuration (Table III column 2). */
    static PimConfig customHbmA100();
    /** Near-bank RTX 4090 configuration (Table III column 3). */
    static PimConfig nearBankRtx4090();
};

struct PimExecStats {
    double timeNs = 0.0;
    double energyPj = 0.0;
    CommandCounts commands;
    /** Total chunks streamed through the MMAC units (all banks). */
    double chunksMoved = 0.0;
    /** Chunk granularity used. */
    size_t chunkGranularity = 0;
    bool supported = true;
};

class PimKernelModel
{
  public:
    PimKernelModel(const DramConfig &dram, const PimConfig &pim)
        : dram_(dram), pim_(pim)
    {
        pim_.validate(dram_);
    }

    const PimConfig &config() const { return pim_; }

    /**
     * Execute one PIM instruction over `limbs` limbs of degree-n
     * polynomials, using all banks. Returns device-level time/energy.
     *
     * The first call for a shape (opcode, fanIn, limbs, n) prices it;
     * later calls return the stored result, bitwise identical. Every call counts in pim.model.instructions
     * and pim.model.chunks_moved, and in exactly one of
     * pim.model.price_hits / pim.model.price_misses. Thread-safe.
     */
    PimExecStats execute(PimOpcode opcode, size_t fanIn, size_t limbs,
                         size_t n) const;

    /** Time/energy of moving the same bytes over the regular DRAM
     *  interface (the GPU-side baseline of Fig. 9). */
    PimExecStats baseline(PimOpcode opcode, size_t fanIn, size_t limbs,
                          size_t n) const;

  private:
    struct Shape {
        PimOpcode opcode;
        size_t fanIn;
        size_t limbs;
        size_t n;
        bool operator==(const Shape &) const = default;
    };
    struct ShapeHash {
        size_t operator()(const Shape &shape) const;
    };

    /** The command-level price of one shape, chained pieces included. */
    PimExecStats price(const Shape &shape) const;
    /** The price of one instruction piece on either variant. */
    PimExecStats executeProfile(const PimInstrProfile &profile,
                                size_t limbs, size_t n) const;

    DramConfig dram_;
    PimConfig pim_;
    /** Priced shapes; a miss prices under the lock, so each shape is
     *  priced exactly once per model. */
    mutable std::mutex pricesMutex_;
    mutable std::unordered_map<Shape, PimExecStats, ShapeHash> prices_;
};

} // namespace anaheim

#endif // ANAHEIM_PIM_KERNELMODEL_H
