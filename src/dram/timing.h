/**
 * @file
 * DRAM device descriptions: timing parameters, geometry and energy
 * coefficients for the HBM2 (A100 80GB) and GDDR6X (RTX 4090)
 * configurations of Table III.
 */

#ifndef ANAHEIM_DRAM_TIMING_H
#define ANAHEIM_DRAM_TIMING_H

#include <cstddef>
#include <string>

namespace anaheim {

/** Command-to-command timing constraints, in device clock cycles. */
struct DramTiming {
    /** Command clock period in nanoseconds. */
    double tCkNs = 1.0;
    /** ACT to column command (RAS-to-CAS). */
    int tRCD = 14;
    /** PRE to ACT (row precharge). */
    int tRP = 14;
    /** ACT to PRE (row active time). */
    int tRAS = 33;
    /** Column-to-column, same bank group (burst occupancy). */
    int tCCD = 2;
    /** Write recovery before PRE. */
    int tWR = 16;
    /** Read-to-precharge. */
    int tRTP = 5;
    /** Write-to-read turnaround. */
    int tWTR = 8;
    /** Average refresh interval (all-bank refresh cadence). */
    int tREFI = 5900;
    /** Refresh cycle time (bank unavailable). */
    int tRFC = 530;
};

/** Per-command / per-byte energy coefficients (pJ), following the
 *  O'Connor et al. fine-grained DRAM energy breakdown [62]. */
struct DramEnergy {
    /** One row activate + precharge pair (whole 8Kb row), in pJ. */
    double actPrePj = 900.0;
    /** Moving one byte from the sense amps through the bank's local
     *  datapath (the only movement PIM near-bank accesses pay). */
    double nearBankPerBytePj = 2.0;
    /** Moving one byte across the die's global I/O to the die edge /
     *  TSVs (paid by custom-HBM PIM and by normal reads). */
    double globalIoPerBytePj = 8.0;
    /** Off-chip interface energy per byte (PHY + interposer/board),
     *  paid only by normal (non-PIM) accesses. */
    double externalPerBytePj = 21.0;
};

/** Geometry and derived bandwidth of one DRAM configuration. */
struct DramConfig {
    std::string name;
    /** Total DRAM dies visible to the processor. */
    size_t dies = 40;
    size_t banksPerDie = 64;
    /** Row size per bank (paper: 8Kb = 1KB rows). */
    size_t rowBytes = 1024;
    /** Column access granularity (256-bit chunks). */
    size_t chunkBytes = 32;
    /** Aggregate external bandwidth, GB/s. */
    double externalBwGBs = 1802.0;
    /** Total capacity in bytes. */
    double capacityBytes = 80e9;
    DramTiming timing;
    DramEnergy energy;

    size_t chunksPerRow() const { return rowBytes / chunkBytes; }
    size_t totalBanks() const { return dies * banksPerDie; }

    /** HBM2 stack configuration of the A100 80GB (5 stacks x 8 dies). */
    static DramConfig hbm2A100();
    /** GDDR6X configuration of the RTX 4090 (12 dies). */
    static DramConfig gddr6xRtx4090();
};

} // namespace anaheim

#endif // ANAHEIM_DRAM_TIMING_H
