/**
 * @file
 * Timing and energy model of Anaheim PIM kernels.
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

#include "dram/bank.h"
#include "dram/timing.h"
#include "isa.h"
#include "layout.h"
#include "sim/health.h"

namespace anaheim {

enum class PimVariant { NearBank, CustomHbm };

struct PimConfig {
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
     * bank indices — layouts stripe each limb over the remaining
     * healthy banks (more chunks per bank, so longer lockstep
     * streams), and energy only charges the banks that still switch.
     */
    std::vector<size_t> offlineBanks;
    /** Quarantined MMAC lanes per unit: the surviving lanes absorb the
     *  dead lanes' multiplies, stretching the chunk cadence by
     *  lanes / healthyLanes(). */
    size_t quarantinedLanes = 0;

    size_t healthyBanksPerDieGroup() const
    {
        return banksPerDieGroup > offlineBanks.size()
                   ? banksPerDieGroup - offlineBanks.size()
                   : 1;
    }
    size_t healthyLanes() const
    {
        return lanes > quarantinedLanes ? lanes - quarantinedLanes : 1;
    }

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
    PimExecStats executeProfile(const PimInstrProfile &profile,
                                size_t limbs, size_t n) const;
    PimExecStats executeNearBank(const PimInstrProfile &profile,
                                 size_t limbs, size_t n) const;
    PimExecStats executeCustomHbm(const PimInstrProfile &profile,
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
