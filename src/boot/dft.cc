#include "dft.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

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
DftPlan::forwardButterfly(Complex &lo, Complex &hi, size_t j,
                          size_t len) const
{
    const size_t lenq = len << 2;
    const size_t idx = (rotGroup_[j] % lenq) * (4 * slots_ / lenq);
    const Complex u = lo;
    const Complex v = hi * ksiPows_[idx];
    lo = u + v;
    hi = u - v;
}

void
DftPlan::inverseButterfly(Complex &lo, Complex &hi, size_t j,
                          size_t len) const
{
    const size_t lenq = len << 2;
    const size_t idx =
        (lenq - (rotGroup_[j] % lenq)) * (4 * slots_ / lenq);
    const Complex u = lo + hi;
    Complex v = lo - hi;
    v *= ksiPows_[idx];
    lo = 0.5 * u;
    hi = 0.5 * v;
}

void
DftPlan::forwardStage(std::vector<Complex> &vals, size_t len) const
{
    const size_t lenh = len >> 1;
    for (size_t i = 0; i < slots_; i += len) {
        for (size_t j = 0; j < lenh; ++j)
            forwardButterfly(vals[i + j], vals[i + j + lenh], j, len);
    }
}

void
DftPlan::inverseStage(std::vector<Complex> &vals, size_t len) const
{
    const size_t lenh = len >> 1;
    for (size_t i = 0; i < slots_; i += len) {
        for (size_t j = 0; j < lenh; ++j)
            inverseButterfly(vals[i + j], vals[i + j + lenh], j, len);
    }
}

DiagMatrix
DftPlan::materialize(const std::vector<size_t> &stageLens, bool forward,
                     Complex scale) const
{
    // A stage of length len pairs position p with p ^ len/2, so unit
    // column c reaches exactly 2^stages rows, along one butterfly path
    // each. Propagating only those entries runs every butterfly of the
    // dense product with the operand the column never reached as an
    // exact zero: the same floating-point operations in the same order,
    // so the same values, up to the sign of a zero.
    const size_t reach = size_t{1} << stageLens.size();
    std::vector<size_t> rows(slots_ * reach);
    std::vector<Complex> vals(slots_ * reach);
    for (size_t c = 0; c < slots_; ++c) {
        size_t *row = &rows[c * reach];
        Complex *val = &vals[c * reach];
        row[0] = c;
        val[0] = scale;
        size_t count = 1;
        for (const size_t len : stageLens) {
            const size_t lenh = len >> 1;
            for (size_t t = 0; t < count; ++t) {
                const bool isHi = (row[t] & lenh) != 0;
                const size_t lo = row[t] & ~lenh;
                Complex a = isHi ? Complex{0.0, 0.0} : val[t];
                Complex b = isHi ? val[t] : Complex{0.0, 0.0};
                if (forward)
                    forwardButterfly(a, b, lo & (len - 1), len);
                else
                    inverseButterfly(a, b, lo & (len - 1), len);
                row[t] = lo;
                val[t] = a;
                row[t + count] = lo + lenh;
                val[t + count] = b;
            }
            count <<= 1;
        }
    }

    // Entry (r, c) sits on diagonal (c - r) mod n. A diagonal whose
    // largest entry is at most 1e-12 is dropped, as from a dense scan.
    constexpr double kTolerance = 1e-12;
    auto diagonalOf = [&](size_t k) {
        return (k / reach + slots_ - rows[k]) % slots_;
    };
    std::vector<double> maxAbs(slots_, 0.0);
    for (size_t k = 0; k < rows.size(); ++k) {
        double &m = maxAbs[diagonalOf(k)];
        m = std::max(m, std::abs(vals[k]));
    }
    DiagMatrix out(slots_);
    for (size_t k = 0; k < rows.size(); ++k) {
        const size_t d = diagonalOf(k);
        if (maxAbs[d] > kTolerance)
            out.diagonal(d)[rows[k]] = vals[k];
    }
    return out;
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
