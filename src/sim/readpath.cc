#include "readpath.h"

namespace anaheim {

PimDataPath::PimDataPath(const FaultConfig &faults, bool eccEnabled)
    : model_(faults), ecc_(eccEnabled)
{
}

uint32_t
PimDataPath::classifyStorageFault(uint64_t rawRead, uint32_t stored)
{
    ++counters_.faultyWords;
    const EccDecodeResult decoded = SecDed3932::decode(rawRead);
    switch (decoded.outcome) {
      case EccOutcome::Clean:
        // >= 2 flips aliased to a valid codeword: silent corruption.
        if (decoded.data != stored)
            ++counters_.silent;
        break;
      case EccOutcome::Corrected:
        ++counters_.corrected;
        // A >= 3-flip pattern can masquerade as a single-bit error and
        // "correct" to the wrong word.
        if (decoded.data != stored)
            ++counters_.silent;
        break;
      case EccOutcome::Uncorrectable:
        ++counters_.uncorrectable;
        uncorrectableSeen_ = true;
        break;
    }
    return decoded.data;
}

uint32_t
PimDataPath::readWord(uint32_t stored, size_t word)
{
    ++counters_.wordsRead;
    if (!model_.injectsFaults())
        return stored;

    if (!ecc_) {
        // Raw datapath: faults land directly on the 32 data bits and
        // nothing detects them.
        const uint32_t read = static_cast<uint32_t>(model_.corrupt(
            stored, limb_, word, epoch_, SecDed3932::kDataBits));
        if (read != stored) {
            ++counters_.faultyWords;
            ++counters_.silent;
        }
        return read;
    }

    const uint64_t codeword = SecDed3932::encode(stored);
    const uint64_t rawRead = model_.corrupt(codeword, limb_, word, epoch_,
                                            SecDed3932::kCodeBits);
    if (rawRead == codeword)
        return stored;
    return classifyStorageFault(rawRead, stored);
}

uint32_t
PimDataPath::writeWord(uint32_t value, size_t word)
{
    ++counters_.wordsWritten;
    if (!model_.injectsFaults())
        return value;
    const size_t site = siteWord(FaultSite::WriteBack, word);

    if (!ecc_) {
        const uint32_t stored = static_cast<uint32_t>(model_.corrupt(
            value, limb_, site, epoch_, SecDed3932::kDataBits));
        if (stored != value) {
            ++counters_.faultyWords;
            ++counters_.silent;
        }
        return stored;
    }

    // ECC encode happens before the write drivers: a driver fault
    // corrupts the stored codeword and the *next read's* decode
    // classifies it. The functional model folds that future decode
    // into the store.
    const uint64_t codeword = SecDed3932::encode(value);
    const uint64_t rawStored = model_.corrupt(
        codeword, limb_, site, epoch_, SecDed3932::kCodeBits);
    if (rawStored == codeword)
        return value;
    return classifyStorageFault(rawStored, value);
}

uint32_t
PimDataPath::laneValue(uint32_t value, size_t word)
{
    ++counters_.laneOps;
    if (!model_.injectsFaults())
        return value;
    const uint32_t out = model_.corruptLane(value, limb_, word, epoch_);
    if (out != value) {
        ++counters_.laneFaults;
        ++counters_.silent;
    }
    return out;
}

} // namespace anaheim
