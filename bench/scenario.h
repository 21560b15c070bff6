/**
 * @file
 * The shared scenario pieces of the fault and serving benches
 * (bench_fault_campaign, bench_degradation, bench_serving,
 * bench_serving_faults), which read their flags and print their rows
 * with bench_util.h's Flags and Table:
 *
 *   meanOverTrials  the Monte Carlo trial loop and its fault seeds;
 *   tenantMix       the hmult_chain / ew_chain serving tenants and the
 *                   service-time calibration that sizes them.
 */

#ifndef ANAHEIM_BENCH_SCENARIO_H
#define ANAHEIM_BENCH_SCENARIO_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "anaheim/framework.h"
#include "bench_util.h"
#include "trace/builders.h"

namespace anaheim::bench {

/** Trial t of a Monte Carlo cell draws its faults from the base
 *  `--fault-seed` + t * kTrialSeedStride, so adding trials keeps the
 *  earlier ones. */
inline constexpr uint64_t kTrialSeedStride = 1000003;

/** One Monte Carlo cell: `cell` (the cell's coordinates), then the mean
 *  over `trials` trials of each column `trial(faultSeed)` returns. */
template <typename Trial>
Row
meanOverTrials(Row cell, size_t trials, uint64_t seed, const Trial &trial)
{
    std::vector<double> sum;
    for (size_t t = 0; t < trials; ++t) {
        const Row columns = trial(seed + t * kTrialSeedStride);
        sum.resize(columns.size(), 0.0);
        for (size_t c = 0; c < columns.size(); ++c)
            sum[c] += columns[c].number;
    }
    for (const double total : sum)
        cell.push_back(total / static_cast<double>(trials));
    return cell;
}

/** `repeats` HMULTs chained into one trace (NTT/BConv dominated): the
 *  serving benches' GPU-heavy tenant and the fault campaigns' long
 *  trace, the worst case for all-or-nothing recovery. */
inline OpSequence
hmultChain(size_t repeats)
{
    OpSequence seq = buildHMult(TraceParams{});
    const OpSequence one = seq;
    for (size_t r = 1; r < repeats; ++r)
        seq.append(one);
    seq.name = "hmult_chain";
    return seq;
}

/** PIM-heavy tenant: `pairs` element-wise HADD+PMULT pairs. Every op
 *  offloads, so the trace is ~100% PIM. */
inline OpSequence
ewChain(size_t pairs)
{
    const TraceParams params;
    OpSequence seq = buildHAdd(params);
    const OpSequence add = seq;
    const OpSequence mult = buildPMult(params);
    seq.append(mult);
    for (size_t r = 1; r < pairs; ++r) {
        seq.append(add);
        seq.append(mult);
    }
    seq.name = "ew_chain";
    return seq;
}

/** The serving benches' tenant population: an hmult_chain and an
 *  ew_chain calibrated to the same service time on one framework, so
 *  aggregate demand splits evenly across the GPU and PIM clocks. */
struct TenantMix {
    std::vector<OpSequence> traces; ///< {hmult_chain, ew_chain}
    double gpuHeavyNs = 0.0;
    double pimHeavyNs = 0.0;
    size_t pairs = 0; ///< HADD+PMULT pairs in the ew_chain
    double meanServiceNs = 0.0;
    /** Requests per second when every request runs back-to-back on
     *  the combined device: the unit of the load sweeps. */
    double serialCapacityRps = 0.0;
};

inline TenantMix
tenantMix(const AnaheimFramework &fw, size_t repeats)
{
    TenantMix mix;
    const OpSequence gpuHeavy = hmultChain(repeats);
    mix.gpuHeavyNs = fw.execute(gpuHeavy).totalNs;
    const double pairNs = fw.execute(ewChain(1)).totalNs;
    mix.pairs = std::max<size_t>(
        1, static_cast<size_t>(mix.gpuHeavyNs / pairNs + 0.5));
    const OpSequence pimHeavy = ewChain(mix.pairs);
    mix.pimHeavyNs = fw.execute(pimHeavy).totalNs;
    mix.traces = {gpuHeavy, pimHeavy};
    mix.meanServiceNs = (mix.gpuHeavyNs + mix.pimHeavyNs) / 2.0;
    mix.serialCapacityRps = 1e9 / mix.meanServiceNs;
    return mix;
}

} // namespace anaheim::bench

#endif // ANAHEIM_BENCH_SCENARIO_H
