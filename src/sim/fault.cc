#include "fault.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/status.h"
#include "ecc.h"

namespace anaheim {

namespace {

/** splitmix64 finalizer: decorrelates structured coordinate inputs. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
siteKey(uint64_t seed, size_t limb, size_t word, uint64_t epoch)
{
    uint64_t key = mix(seed);
    key = mix(key ^ (static_cast<uint64_t>(limb) + 1));
    key = mix(key ^ (static_cast<uint64_t>(word) + 1));
    key = mix(key ^ (epoch + 1));
    return key;
}

/**
 * Deterministic draw of a count with the given expectation: Knuth
 * Poisson sampling for small expectations, a clamped normal
 * approximation for large ones (both fed by the caller's Rng).
 */
uint64_t
sampleCount(Rng &rng, double expected)
{
    if (expected <= 0.0)
        return 0;
    if (expected < 64.0) {
        const double limit = std::exp(-expected);
        uint64_t count = 0;
        double product = rng.uniformReal();
        while (product > limit) {
            ++count;
            product *= rng.uniformReal();
        }
        return count;
    }
    const double draw = expected + std::sqrt(expected) * rng.gaussian();
    return draw <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(draw));
}

/** Per-codeword outcome probabilities at per-bit rate `ber` over `n`
 *  bits: none / exactly-one / two-or-more flipped. */
struct WordClassProbs {
    double single = 0.0;
    double multi = 0.0;
};

WordClassProbs
wordClassProbs(double ber, double n)
{
    WordClassProbs probs;
    const double pNone = std::pow(1.0 - ber, n);
    probs.single = n * ber * std::pow(1.0 - ber, n - 1.0);
    probs.multi = std::max(1.0 - pNone - probs.single, 0.0);
    return probs;
}

/** Stream-class tags decorrelating the event-level draw families. */
constexpr uint64_t kStorageStream = 0xfa117;
constexpr uint64_t kLaneStream = 0x1a4e5;
constexpr uint64_t kRetentionStream = 0x4e7e4;
constexpr uint64_t kPermanentStream = 0xdeadb;

} // namespace

FaultModel::FaultModel(FaultConfig config) : config_(std::move(config))
{
    ANAHEIM_CHECK(config_.ber >= 0.0 && config_.ber < 1.0,
                  InvalidArgument,
                  "bit-error rate must be in [0, 1), got ", config_.ber);
    ANAHEIM_CHECK(config_.laneBer >= 0.0 && config_.laneBer < 1.0,
                  InvalidArgument,
                  "lane bit-error rate must be in [0, 1), got ",
                  config_.laneBer);
    ANAHEIM_CHECK(config_.retentionBerPerWindow >= 0.0 &&
                      config_.retentionBerPerWindow < 1.0,
                  InvalidArgument,
                  "retention bit-error rate must be in [0, 1), got ",
                  config_.retentionBerPerWindow);
    ANAHEIM_CHECK(config_.permanentBankRate >= 0.0 &&
                      config_.permanentBankRate < 1.0,
                  InvalidArgument,
                  "permanent bank-failure rate must be in [0, 1), got ",
                  config_.permanentBankRate);
    for (const TargetedFault &target : config_.targets) {
        ANAHEIM_CHECK(target.bitMask != 0, InvalidArgument,
                      "targeted fault with empty bit mask at limb ",
                      target.limb, ", word ", target.word);
    }
}

uint64_t
FaultModel::corrupt(uint64_t codeword, size_t limb, size_t word,
                    uint64_t epoch, unsigned bits) const
{
    return corruptAtRate(codeword, config_.ber, limb, word, epoch, bits);
}

uint32_t
FaultModel::corruptLane(uint32_t value, size_t limb, size_t word,
                        uint64_t epoch) const
{
    // 28-bit Montgomery datapath; lane flips re-sample per epoch like
    // any transient upset, so a replay usually computes cleanly.
    return static_cast<uint32_t>(
        corruptAtRate(value, config_.laneBer, limb,
                      siteWord(FaultSite::MmacLane, word), epoch, 28));
}

uint64_t
FaultModel::corruptAtRate(uint64_t codeword, double rate, size_t limb,
                          size_t word, uint64_t epoch,
                          unsigned bits) const
{
    if (rate > 0.0) {
        Rng rng(siteKey(config_.seed, limb, word, epoch));
        for (unsigned bit = 0; bit < bits; ++bit) {
            if (rng.uniformReal() < rate)
                codeword ^= uint64_t{1} << bit;
        }
    }
    const uint64_t width =
        bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
    for (const TargetedFault &target : config_.targets) {
        if (target.limb != limb || target.word != word)
            continue;
        const uint64_t mask = target.bitMask & width;
        switch (target.kind) {
          case FaultKind::Transient:
            codeword ^= mask;
            break;
          case FaultKind::StuckAtZero:
            codeword &= ~mask;
            break;
          case FaultKind::StuckAtOne:
            codeword |= mask;
            break;
        }
    }
    return codeword;
}

std::vector<PermanentBankFault>
FaultModel::samplePermanentBanks(size_t dieGroups,
                                 size_t banksPerGroup) const
{
    std::vector<PermanentBankFault> failed;
    for (const PermanentBankFault &bank : config_.permanentBanks) {
        if (bank.dieGroup < dieGroups && bank.bank < banksPerGroup)
            failed.push_back(bank);
    }
    if (config_.permanentBankRate > 0.0) {
        // One independent draw per physical bank, keyed only by the
        // seed and the bank's coordinates: no epoch, no stream — the
        // failure set is a property of the device, not of the run.
        for (size_t g = 0; g < dieGroups; ++g) {
            for (size_t b = 0; b < banksPerGroup; ++b) {
                Rng rng(siteKey(config_.seed, kPermanentStream,
                                g * banksPerGroup + b, 0));
                if (rng.uniformReal() < config_.permanentBankRate)
                    failed.push_back({g, b});
            }
        }
    }
    std::sort(failed.begin(), failed.end(),
              [](const PermanentBankFault &a, const PermanentBankFault &b) {
                  return a.dieGroup != b.dieGroup
                             ? a.dieGroup < b.dieGroup
                             : a.bank < b.bank;
              });
    failed.erase(std::unique(failed.begin(), failed.end(),
                             [](const PermanentBankFault &a,
                                const PermanentBankFault &b) {
                                 return a.dieGroup == b.dieGroup &&
                                        a.bank == b.bank;
                             }),
                 failed.end());
    return failed;
}

FaultEventCounts
FaultModel::sampleEvents(size_t words, uint64_t streamId) const
{
    FaultEventCounts counts;
    if (config_.ber <= 0.0 || words == 0)
        return counts;
    const WordClassProbs probs =
        wordClassProbs(config_.ber, SecDed3932::kCodeBits);

    Rng rng(siteKey(config_.seed, kStorageStream, streamId, 0));
    const double total = static_cast<double>(words);
    counts.singleBit = sampleCount(rng, total * probs.single);
    counts.multiBit = sampleCount(rng, total * probs.multi);
    counts.faulty = counts.singleBit + counts.multiBit;
    return counts;
}

FaultEventCounts
FaultModel::sampleLaneEvents(size_t laneOps, uint64_t streamId) const
{
    FaultEventCounts counts;
    if (config_.laneBer <= 0.0 || laneOps == 0)
        return counts;
    // A lane fault of any multiplicity poisons the product the same
    // way and nothing on the lane detects it: one class only.
    const double pFault = 1.0 - std::pow(1.0 - config_.laneBer, 28.0);
    Rng rng(siteKey(config_.seed, kLaneStream, streamId, 0));
    counts.faulty =
        sampleCount(rng, static_cast<double>(laneOps) * pFault);
    return counts;
}

FaultEventCounts
FaultModel::sampleRetention(uint64_t window, size_t words) const
{
    FaultEventCounts counts;
    if (config_.retentionBerPerWindow <= 0.0 || words == 0)
        return counts;
    // Decay lands on full stored codewords (data + check bits), so the
    // SEC-DED single/multi split applies: singles are correctable by
    // the next scrub pass, multis are lost data.
    const WordClassProbs probs = wordClassProbs(
        config_.retentionBerPerWindow, SecDed3932::kCodeBits);
    Rng rng(siteKey(config_.seed, kRetentionStream, window, 0));
    const double total = static_cast<double>(words);
    counts.singleBit = sampleCount(rng, total * probs.single);
    counts.multiBit = sampleCount(rng, total * probs.multi);
    counts.faulty = counts.singleBit + counts.multiBit;
    return counts;
}

} // namespace anaheim
