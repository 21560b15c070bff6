#include "kernelmodel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace anaheim {

PimConfig
PimConfig::degraded(const ResourceMap &resources) const
{
    PimConfig config = *this;
    // All banks of a die group run in lockstep, so the device follows
    // its worst group; the healthier groups idle their excess banks.
    size_t worstGroup = 0;
    size_t worstCount = 0;
    for (size_t g = 0; g < resources.dieGroups; ++g) {
        const size_t count = resources.quarantinedBanksInGroup(g);
        if (count > worstCount) {
            worstCount = count;
            worstGroup = g;
        }
    }
    config.offlineBanks = resources.offlineBanksInGroup(worstGroup);
    if (config.offlineBanks.size() >= config.banksPerDieGroup)
        config.offlineBanks.resize(config.banksPerDieGroup - 1);
    config.quarantinedLanes =
        std::min(resources.maxQuarantinedLanesPerGroup(),
                 config.lanes > 0 ? config.lanes - 1 : size_t{0});
    return config;
}

void
PimConfig::validate(const DramConfig &dram) const
{
    ANAHEIM_ASSERT(dram.chunksPerRow() % kColumnGroups == 0,
                   "column groups must divide the row");
    std::vector<bool> offline(banksPerDieGroup, false);
    for (const size_t bank : offlineBanks) {
        ANAHEIM_CHECK(bank < banksPerDieGroup, InvalidArgument,
                      "offline bank ", bank, " outside the die group's ",
                      banksPerDieGroup, " banks");
        ANAHEIM_CHECK(!offline[bank], InvalidArgument, "offline bank ",
                      bank, " listed twice");
        offline[bank] = true;
    }
    ANAHEIM_CHECK(offlineBanks.size() < banksPerDieGroup,
                  ResourceExhausted,
                  "every bank of the die group is quarantined");
}

size_t
PimConfig::chunksPerBank(const DramConfig &dram, size_t n) const
{
    const size_t limbChunks = 4 * n / dram.chunkBytes;
    const size_t healthy = healthyBanksPerDieGroup();
    ANAHEIM_ASSERT(limbChunks >= healthy,
                   "fewer chunks than healthy banks in the die group");
    // The ceil puts the remainder chunks on part of the banks; it is
    // the exact quotient on every fault-free standard configuration.
    return (limbChunks + healthy - 1) / healthy;
}

size_t
PimConfig::rowsPerRowGroup(const DramConfig &dram, size_t n) const
{
    const size_t chunksPerColumnGroup = dram.chunksPerRow() / kColumnGroups;
    return (chunksPerBank(dram, n) + chunksPerColumnGroup - 1) /
           chunksPerColumnGroup;
}

PimConfig
PimConfig::nearBankA100()
{
    PimConfig config;
    config.variant = PimVariant::NearBank;
    config.bufferEntries = 16;
    config.clockGHz = 0.378;
    config.banksPerUnit = 1;
    config.banksPerDieGroup = 512; // one 8-Hi stack x 64 banks
    config.dieGroups = 5;
    return config;
}

PimConfig
PimConfig::customHbmA100()
{
    PimConfig config;
    config.variant = PimVariant::CustomHbm;
    config.bufferEntries = 16;
    config.clockGHz = 0.756;
    config.banksPerUnit = 8;
    config.banksPerDieGroup = 512;
    config.dieGroups = 5;
    return config;
}

PimConfig
PimConfig::nearBankRtx4090()
{
    PimConfig config;
    config.variant = PimVariant::NearBank;
    config.bufferEntries = 32;
    config.clockGHz = 0.656;
    config.banksPerUnit = 1;
    config.banksPerDieGroup = 128; // die group of 4 dies x 32 banks
    config.dieGroups = 3;
    return config;
}

namespace {

/** Effective chunk period in DRAM cycles: the larger of the column
 *  cadence and the PIM unit's processing rate (8 lanes = 1 chunk per
 *  MMAC pass). */
int
chunkPeriodCycles(const DramTiming &timing, double clockGHz,
                  double mmacPerChunk)
{
    const double pimNs = mmacPerChunk / clockGHz;
    const double cadence =
        std::max(static_cast<double>(timing.tCCD) * timing.tCkNs, pimNs);
    return std::max(timing.tCCD,
                    static_cast<int>(std::ceil(cadence / timing.tCkNs)));
}

/** One phase of a near-bank iteration: `polys` polynomials of G chunks
 *  each per bank. Column partitioning keeps them in one row group, one
 *  ACT; contiguous allocation opens one row per polynomial. */
void
streamPhase(BankEngine &bank, DramCommand command, size_t polys, size_t g,
            bool columnPartition)
{
    const size_t acts = columnPartition ? 1 : std::max<size_t>(1, polys);
    const size_t share = (polys * g + acts - 1) / acts;
    for (size_t a = 0; a < acts; ++a) {
        bank.activateRow();
        for (size_t c = 0; c < share; ++c)
            bank.issue(command);
    }
}

} // namespace

PimExecStats
PimKernelModel::executeProfile(const PimInstrProfile &profile,
                               size_t limbs, size_t n) const
{
    PimExecStats stats;
    const size_t chunksPerBank = pim_.chunksPerBank(dram_, n);
    size_t g = pim_.bufferEntries / profile.bufferRegions;
    if (g == 0) {
        stats.supported = false;
        return stats;
    }
    // The chunk granularity cannot exceed the chunks a bank holds.
    g = std::min(g, chunksPerBank);
    stats.chunkGranularity = g;
    const size_t iterations = (chunksPerBank + g - 1) / g;
    // Limbs are distributed across die groups; each group processes its
    // share sequentially, all banks of the group in lockstep.
    const size_t limbBatches =
        (limbs + pim_.dieGroups - 1) / pim_.dieGroups;
    // Dead MMAC lanes stretch the per-chunk processing time: the
    // surviving lanes serialize the missing lanes' multiplies.
    const double laneFactor = static_cast<double>(pim_.lanes) /
                              static_cast<double>(pim_.healthyLanes());
    const size_t streams =
        profile.readsGroup0 + profile.readsGroup1 + profile.writes;
    const bool nearBank = pim_.variant == PimVariant::NearBank;
    // Chunks one bank streams: G per iteration near the bank, every
    // chunk it holds through the logic-die unit.
    const double chunksPerBankTotal = static_cast<double>(
        streams * (nearBank ? g * iterations : chunksPerBank) *
        limbBatches);

    double actEvents = 0.0;
    double perBytePj = dram_.energy.nearBankPerBytePj;
    if (nearBank) {
        DramTiming timing = dram_.timing;
        timing.tCCD = chunkPeriodCycles(dram_.timing, pim_.clockGHz,
                                        profile.mmacPerChunk * laneFactor);
        BankEngine bank(timing);
        for (size_t batch = 0; batch < limbBatches; ++batch) {
            for (size_t iter = 0; iter < iterations; ++iter) {
                // Buffered operands (plaintexts / first sources), the
                // operands streamed through the MMAC units, then the
                // write-back of the results.
                if (profile.readsGroup0 > 0)
                    streamPhase(bank, DramCommand::Rd, profile.readsGroup0,
                                g, pim_.columnPartition);
                streamPhase(bank, DramCommand::Rd, profile.readsGroup1, g,
                            pim_.columnPartition);
                streamPhase(bank, DramCommand::Wr, profile.writes, g,
                            pim_.columnPartition);
            }
        }
        if (bank.rowOpen())
            bank.issue(DramCommand::Pre);
        stats.timeNs = bank.elapsedNs();
        stats.commands = bank.counts();
        actEvents = static_cast<double>(stats.commands.acts);
    } else {
        // The logic-die unit serves banksPerUnit banks: streaming is
        // bound by the unit's MMAC rate (one chunk per pass), while
        // ACT/PRE of one bank hides behind the streaming of the other
        // banks. Residual exposure shrinks with both G and the
        // banks-per-unit ratio.
        const double chunkNs =
            profile.mmacPerChunk * laneFactor / pim_.clockGHz;
        const double streamNs = chunksPerBankTotal *
                                static_cast<double>(pim_.banksPerUnit) *
                                chunkNs;
        const double actPreNs =
            static_cast<double>(dram_.timing.tRP + dram_.timing.tRCD) *
            dram_.timing.tCkNs;
        actEvents = 3.0 * static_cast<double>(iterations) *
                    static_cast<double>(limbBatches) *
                    (pim_.columnPartition
                         ? 1.0
                         : static_cast<double>(streams) / 3.0);
        const double exposedActNs =
            actEvents * actPreNs / static_cast<double>(pim_.banksPerUnit);
        stats.timeNs = streamNs + exposedActNs;
        stats.commands.acts = static_cast<uint64_t>(actEvents);
        stats.commands.pres = stats.commands.acts;
        // Data crosses the die to the logic-die TSVs: global-I/O energy.
        perBytePj = dram_.energy.nearBankPerBytePj +
                    dram_.energy.globalIoPerBytePj;
    }

    // Only the healthy banks still switch; quarantined ones idle.
    const double banks =
        static_cast<double>(pim_.healthyBanksPerDieGroup()) *
        pim_.dieGroups;
    stats.chunksMoved = chunksPerBankTotal * banks;
    const double bytesMoved = stats.chunksMoved * dram_.chunkBytes;
    const double mmacs = stats.chunksMoved * pim_.lanes *
                         profile.mmacPerChunk;
    stats.energyPj = actEvents * banks * dram_.energy.actPrePj +
                     bytesMoved * perBytePj + mmacs * pim_.mmacEnergyPj;
    return stats;
}

size_t
PimKernelModel::ShapeHash::operator()(const Shape &shape) const
{
    uint64_t h = static_cast<uint64_t>(shape.opcode);
    for (const uint64_t v : {shape.fanIn, shape.limbs, shape.n})
        h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(h ^ (h >> 32));
}

PimExecStats
PimKernelModel::execute(PimOpcode opcode, size_t fanIn, size_t limbs,
                        size_t n) const
{
    static obs::Counter &instructions =
        obs::MetricsRegistry::global().counter("pim.model.instructions");
    static obs::Gauge &chunks =
        obs::MetricsRegistry::global().gauge("pim.model.chunks_moved");
    static obs::Counter &hits =
        obs::MetricsRegistry::global().counter("pim.model.price_hits");
    static obs::Counter &misses =
        obs::MetricsRegistry::global().counter("pim.model.price_misses");

    const Shape shape{opcode, fanIn, limbs, n};
    PimExecStats stats;
    {
        std::lock_guard<std::mutex> lock(pricesMutex_);
        const auto it = prices_.find(shape);
        if (it != prices_.end()) {
            stats = it->second;
            hits.add();
        } else {
            stats = price(shape);
            prices_.emplace(shape, stats);
            misses.add();
        }
    }
    instructions.add();
    chunks.add(stats.chunksMoved);
    return stats;
}

PimExecStats
PimKernelModel::price(const Shape &shape) const
{
    // Accumulation instructions whose buffer demand (fanIn + 2 regions)
    // exceeds B are chained: each piece accumulates its share and the
    // running accumulator pair is re-read/re-written between pieces.
    if ((shape.opcode == PimOpcode::PAccum ||
         shape.opcode == PimOpcode::CAccum) &&
        shape.fanIn + 2 > pim_.bufferEntries) {
        // Chain in canonical PAccum<4> pieces (Alg. 1): larger pieces
        // would shrink G below what amortizes ACT/PRE.
        const size_t maxFanIn =
            std::min<size_t>(4, pim_.bufferEntries - 2);
        ANAHEIM_ASSERT(maxFanIn >= 1, "buffer too small for accumulation");
        PimExecStats total;
        size_t remaining = shape.fanIn;
        bool first = true;
        while (remaining > 0) {
            const size_t piece = std::min(remaining, maxFanIn);
            PimInstrProfile profile = pimInstrProfile(shape.opcode, piece);
            // A continuation piece additionally re-reads the two
            // accumulator polynomials it carries forward.
            if (!first)
                profile.readsGroup1 += 2;
            const PimExecStats stats =
                executeProfile(profile, shape.limbs, shape.n);
            total.timeNs += stats.timeNs;
            total.energyPj += stats.energyPj;
            total.commands.acts += stats.commands.acts;
            total.commands.reads += stats.commands.reads;
            total.commands.writes += stats.commands.writes;
            total.commands.pres += stats.commands.pres;
            total.chunksMoved += stats.chunksMoved;
            total.chunkGranularity = stats.chunkGranularity;
            remaining -= piece;
            first = false;
        }
        return total;
    }
    return executeProfile(pimInstrProfile(shape.opcode, shape.fanIn),
                          shape.limbs, shape.n);
}

PimExecStats
PimKernelModel::baseline(PimOpcode opcode, size_t fanIn, size_t limbs,
                         size_t n) const
{
    // GPU-side execution of the same op: every operand crosses the
    // external interface at the device's peak bandwidth.
    const PimInstrProfile profile = pimInstrProfile(opcode, fanIn);
    const double streams = static_cast<double>(
        profile.readsGroup0 + profile.readsGroup1 + profile.writes);
    const double bytes = streams * static_cast<double>(limbs) * 4.0 *
                         static_cast<double>(n);
    PimExecStats stats;
    stats.timeNs = bytes / dram_.externalBwGBs; // GB/s == bytes/ns
    stats.chunksMoved = bytes / dram_.chunkBytes;
    const double rowsTouched = bytes / dram_.rowBytes;
    stats.energyPj =
        rowsTouched * dram_.energy.actPrePj +
        bytes * (dram_.energy.nearBankPerBytePj +
                 dram_.energy.globalIoPerBytePj +
                 dram_.energy.externalPerBytePj);
    return stats;
}

} // namespace anaheim
