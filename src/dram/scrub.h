/**
 * @file
 * Periodic ECC scrub modeling for the DRAM device.
 *
 * Raw near-bank arrays accumulate retention decay between accesses; a
 * scrub pass walks the resident footprint, runs every codeword through
 * the on-die SEC-DED logic, rewrites corrected words in place, and
 * surfaces uncorrectable ones to the caller. All banks scrub their
 * share concurrently (the same all-bank lockstep PIM execution uses),
 * so a pass costs one bank's walk over its slice: per live row an
 * ACT/PRE pair plus the column stream at chunk granularity, at
 * near-bank energy — the scrub never crosses the global I/O.
 *
 * ScrubEngine only prices the pass; what a pass *finds* is tracked by
 * RunContext::runMaintenance, which samples retention decay from the
 * run's seeded FaultModel once per elapsed refresh window.
 */

#ifndef ANAHEIM_DRAM_SCRUB_H
#define ANAHEIM_DRAM_SCRUB_H

#include <cstdint>

#include "timing.h"

namespace anaheim {

/** Knobs for the periodic scrubber (exposed via ResilienceConfig). */
struct ScrubConfig {
    bool enabled = false;
    /** Time between scrub passes over the live footprint, ns. */
    double intervalNs = 100.0e3;
};

/** Cost of one scrub pass. */
struct ScrubPassStats {
    double timeNs = 0.0;
    double energyPj = 0.0;
    uint64_t wordsScrubbed = 0;
};

class ScrubEngine
{
  public:
    ScrubEngine(const DramConfig &dram, const ScrubConfig &config);

    const ScrubConfig &config() const { return config_; }

    /**
     * Price one scrub pass over `liveBytes` of resident data spread
     * across all banks. Pure: identical inputs give identical costs.
     */
    ScrubPassStats pass(double liveBytes) const;

  private:
    DramConfig dram_;
    ScrubConfig config_;
};

} // namespace anaheim

#endif // ANAHEIM_DRAM_SCRUB_H
