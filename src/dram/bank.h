/**
 * @file
 * Command-level DRAM bank timing model (Ramulator-2.0-style [57]):
 * ACT / RD / WR / PRE with the inter-command constraints of timing.h
 * enforced as earliest-issue times. During all-bank PIM execution every
 * bank follows the same schedule (§VI), so one BankEngine models the
 * whole device.
 */

#ifndef ANAHEIM_DRAM_BANK_H
#define ANAHEIM_DRAM_BANK_H

#include <cstdint>

#include "timing.h"

namespace anaheim {

enum class DramCommand { Act, Rd, Wr, Pre };

/** Aggregate command counts (for energy accounting). */
struct CommandCounts {
    uint64_t acts = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t pres = 0;
};

class BankEngine
{
  public:
    explicit BankEngine(const DramTiming &timing) : timing_(timing) {}

    /**
     * Issue a command at the earliest legal cycle and return that
     * cycle. Violations are impossible by construction; issuing RD/WR
     * on a precharged bank or ACT on an open bank panics.
     */
    int64_t issue(DramCommand command);

    /** Open a row: PRE (if a row is open) followed by ACT. */
    int64_t activateRow();

    /** Current simulated time in cycles (end of last data burst). */
    int64_t cycle() const { return busyUntil_; }
    double elapsedNs() const
    {
        return static_cast<double>(busyUntil_) * timing_.tCkNs;
    }

    bool rowOpen() const { return rowOpen_; }
    const CommandCounts &counts() const { return counts_; }
    uint64_t refreshes() const { return refreshes_; }

  private:
    /** Stall for any pending auto-refresh windows before `cycle`. The
     *  model charges tRFC per elapsed tREFI (simplified all-bank
     *  refresh; rows are restored afterwards). */
    int64_t applyRefresh(int64_t cycle);

    DramTiming timing_;
    bool rowOpen_ = false;
    int64_t lastAct_ = -1000000;
    int64_t lastPre_ = -1000000;
    int64_t lastRead_ = -1000000;
    int64_t lastWrite_ = -1000000;
    /** Data-bus / command availability horizon. */
    int64_t busyUntil_ = 0;
    int64_t nextRefresh_ = 0;
    uint64_t refreshes_ = 0;
    CommandCounts counts_;
};

} // namespace anaheim

#endif // ANAHEIM_DRAM_BANK_H
