/**
 * @file
 * GPU timing and energy model.
 *
 * Substitution for the paper's real A100 80GB / RTX 4090 measurements
 * (see DESIGN.md): per-kernel time is a roofline over exact op/byte
 * counts from the trace layer — max(compute, DRAM) plus launch
 * overhead — with per-library efficiency profiles (Cheddar / Phantom /
 * 100x) and the MAD-style caching assumptions of §V-D deciding which
 * operands hit DRAM.
 */

#ifndef ANAHEIM_GPU_GPUMODEL_H
#define ANAHEIM_GPU_GPUMODEL_H

#include <string>

#include "trace/kernel.h"

namespace anaheim {

struct GpuConfig {
    std::string name;
    /** Peak 32-bit integer mult-add throughput, TOPS (Table III). */
    double intTops = 19.5;
    /** External DRAM bandwidth, GB/s. */
    double dramBwGBs = 1802.0;
    /** L2 cache capacity, bytes. */
    double l2Bytes = 40e6;
    /** Kernel launch/transition overhead, microseconds (§V-C). */
    double launchOverheadUs = 3.0;
    /** Achievable fraction of peak DRAM bandwidth for streaming. */
    double bwEfficiency = 0.85;
    /** Fraction of Working/Intermediate element-wise traffic that still
     *  reaches DRAM after L2 reuse (evks/plaintexts never reuse). The
     *  RTX 4090's 72MB L2 retains noticeably more working data. */
    double workingTrafficFactor = 1.0;
    /** Energy coefficients (pJ/op, pJ/byte) and idle power (W). */
    double energyPerIntOpPj = 0.8;
    double energyPerL2BytePj = 1.2;
    double energyPerDramBytePj = 31.0;
    double idlePowerW = 80.0;

    static GpuConfig a100_80gb();
    static GpuConfig rtx4090();
};

/** Per-kernel-class compute efficiency of a GPU FHE library; the knobs
 *  that express the Cheddar-vs-Phantom-vs-100x gaps of Fig. 2a. */
struct LibraryProfile {
    std::string name;
    double nttEfficiency = 0.55;
    double bconvEfficiency = 0.60;
    double elementWiseEfficiency = 0.9;

    static LibraryProfile cheddar();
    static LibraryProfile phantom();
    static LibraryProfile lib100x();
};

/** DRAM-traffic view of one kernel under the caching model. */
struct KernelTraffic {
    double dramReadBytes = 0.0;
    double dramWriteBytes = 0.0;
    double l2Bytes = 0.0;
    double total() const { return dramReadBytes + dramWriteBytes; }
};

struct GpuKernelStats {
    double timeNs = 0.0;
    double energyPj = 0.0;
    double computeNs = 0.0;
    double memoryNs = 0.0;
    KernelTraffic traffic;
    bool memoryBound() const { return memoryNs >= computeNs; }
};

class GpuModel
{
  public:
    GpuModel(const GpuConfig &config, const LibraryProfile &profile)
        : config_(config), profile_(profile)
    {
    }

    const GpuConfig &config() const { return config_; }
    const LibraryProfile &profile() const { return profile_; }

    /**
     * DRAM traffic of one kernel. Evk/plaintext operands always stream
     * from DRAM (one-time use); Working operands stream when the
     * working set exceeds the cache; Intermediate operands round-trip
     * through DRAM unless the kernel was fused with its producer
     * (`fusedWithProducer`, decided by RunContext::fusesWithPrev), in
     * which case they stay in cache/registers.
     *
     * @param extraWriteBackBytes Coherence write-backs Anaheim inserts
     *        before PIM kernels (§V-C).
     */
    KernelTraffic traffic(const KernelOp &op, bool fusedWithProducer,
                          double extraWriteBackBytes = 0.0,
                          bool fusedWithConsumer = false) const;

    /** Roofline execution of one kernel. */
    GpuKernelStats run(const KernelOp &op, const KernelTraffic &traffic)
        const;

    /** Convenience: traffic + run. */
    GpuKernelStats run(const KernelOp &op, bool fusedWithProducer = false,
                       double extraWriteBackBytes = 0.0,
                       bool fusedWithConsumer = false) const;

  private:
    GpuConfig config_;
    LibraryProfile profile_;
};

} // namespace anaheim

#endif // ANAHEIM_GPU_GPUMODEL_H
