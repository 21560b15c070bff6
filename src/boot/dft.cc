#include "dft.h"

#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"

namespace anaheim {

DftPlan::DftPlan(size_t slots, size_t fftIter)
    : slots_(slots), fftIter_(fftIter)
{
    ANAHEIM_ASSERT((slots & (slots - 1)) == 0 && slots >= 2,
                   "slots must be a power of two");
    size_t logN = 0;
    while ((size_t{1} << logN) < slots)
        ++logN;
    ANAHEIM_ASSERT(fftIter >= 1 && fftIter <= logN,
                   "fftIter out of range for ", slots, " slots");

    const size_t m = 4 * slots; // ring 2N with N = 2 * slots
    rotGroup_.resize(slots);
    size_t fivePow = 1;
    for (size_t j = 0; j < slots; ++j) {
        rotGroup_[j] = fivePow;
        fivePow = fivePow * 5 % m;
    }
    ksiPows_.resize(m + 1);
    for (size_t k = 0; k <= m; ++k) {
        const double angle = 2.0 * M_PI * k / static_cast<double>(m);
        ksiPows_[k] = {std::cos(angle), std::sin(angle)};
    }
}

void
DftPlan::forwardStage(std::vector<Complex> &vals, size_t len) const
{
    const size_t m = 4 * slots_;
    const size_t lenh = len >> 1;
    const size_t lenq = len << 2;
    // Butterfly blocks touch disjoint slices [i, i + len); one task per
    // block (nested calls from materialize() run inline).
    parallelFor(0, slots_ / len, [&](size_t block) {
        const size_t i = block * len;
        for (size_t j = 0; j < lenh; ++j) {
            const size_t idx = (rotGroup_[j] % lenq) * (m / lenq);
            const Complex u = vals[i + j];
            const Complex v = vals[i + j + lenh] * ksiPows_[idx];
            vals[i + j] = u + v;
            vals[i + j + lenh] = u - v;
        }
    });
}

void
DftPlan::inverseStage(std::vector<Complex> &vals, size_t len) const
{
    const size_t m = 4 * slots_;
    const size_t lenh = len >> 1;
    const size_t lenq = len << 2;
    parallelFor(0, slots_ / len, [&](size_t block) {
        const size_t i = block * len;
        for (size_t j = 0; j < lenh; ++j) {
            const size_t idx = (lenq - (rotGroup_[j] % lenq)) * (m / lenq);
            const Complex u = vals[i + j] + vals[i + j + lenh];
            Complex v = vals[i + j] - vals[i + j + lenh];
            v *= ksiPows_[idx];
            vals[i + j] = 0.5 * u;
            vals[i + j + lenh] = 0.5 * v;
        }
    });
}

DiagMatrix
DftPlan::materialize(const std::vector<size_t> &stageLens, bool forward,
                     Complex scale) const
{
    // Columns are independent (each propagates one unit vector through
    // the stages into its own scratch buffer), so they parallelize one
    // column per task; the per-column arithmetic is exactly the serial
    // sequence, so results are bitwise identical.
    std::vector<std::vector<Complex>> dense(
        slots_, std::vector<Complex>(slots_, 0.0));
    parallelFor(0, slots_, [&](size_t c) {
        std::vector<Complex> column(slots_, Complex{0.0, 0.0});
        column[c] = scale;
        for (size_t len : stageLens) {
            if (forward)
                forwardStage(column, len);
            else
                inverseStage(column, len);
        }
        for (size_t r = 0; r < slots_; ++r)
            dense[r][c] = column[r];
    });
    return DiagMatrix::fromDense(dense);
}

std::vector<std::vector<size_t>>
DftPlan::groupStages(const std::vector<size_t> &stageLens) const
{
    // Split into fftIter contiguous groups of near-equal size.
    std::vector<std::vector<size_t>> groups(fftIter_);
    const size_t total = stageLens.size();
    size_t next = 0;
    for (size_t g = 0; g < fftIter_; ++g) {
        const size_t count =
            (total * (g + 1)) / fftIter_ - (total * g) / fftIter_;
        for (size_t k = 0; k < count; ++k)
            groups[g].push_back(stageLens[next++]);
    }
    return groups;
}

std::vector<DiagMatrix>
DftPlan::coeffToSlotFactors(Complex extraScale) const
{
    // Inverse stages applied from len = n down to len = 2. The 1/2
    // scaling folded into inverseStage supplies the overall 1/n.
    std::vector<size_t> lens;
    for (size_t len = slots_; len >= 2; len >>= 1)
        lens.push_back(len);
    const auto groups = groupStages(lens);
    // Spread extraScale across factors to keep plaintext magnitudes
    // balanced (each factor gets the fftIter-th root).
    const Complex perFactor =
        std::pow(extraScale, 1.0 / static_cast<double>(fftIter_));
    std::vector<DiagMatrix> factors;
    factors.reserve(groups.size());
    for (const auto &group : groups)
        factors.push_back(materialize(group, false, perFactor));
    return factors;
}

std::vector<DiagMatrix>
DftPlan::slotToCoeffFactors(Complex extraScale) const
{
    std::vector<size_t> lens;
    for (size_t len = 2; len <= slots_; len <<= 1)
        lens.push_back(len);
    const auto groups = groupStages(lens);
    const Complex perFactor =
        std::pow(extraScale, 1.0 / static_cast<double>(fftIter_));
    std::vector<DiagMatrix> factors;
    factors.reserve(groups.size());
    for (const auto &group : groups)
        factors.push_back(materialize(group, true, perFactor));
    return factors;
}

std::vector<DftPlan::Complex>
DftPlan::applyCoeffToSlot(std::vector<Complex> vals) const
{
    ANAHEIM_ASSERT(vals.size() == slots_, "size mismatch");
    for (size_t len = slots_; len >= 2; len >>= 1)
        inverseStage(vals, len);
    return vals;
}

std::vector<DftPlan::Complex>
DftPlan::applySlotToCoeff(std::vector<Complex> vals) const
{
    ANAHEIM_ASSERT(vals.size() == slots_, "size mismatch");
    for (size_t len = 2; len <= slots_; len <<= 1)
        forwardStage(vals, len);
    return vals;
}

} // namespace anaheim
