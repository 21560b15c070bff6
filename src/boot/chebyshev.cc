#include "chebyshev.h"

#include <cmath>

#include "common/logging.h"

namespace anaheim {

std::vector<double>
chebyshevFit(const std::function<double(double)> &f, size_t degree)
{
    const size_t m = degree + 1;
    std::vector<double> samples(m);
    for (size_t j = 0; j < m; ++j) {
        const double theta = M_PI * (static_cast<double>(j) + 0.5) / m;
        samples[j] = f(std::cos(theta));
    }
    std::vector<double> coeffs(m);
    for (size_t k = 0; k < m; ++k) {
        double sum = 0.0;
        for (size_t j = 0; j < m; ++j) {
            const double theta = M_PI * (static_cast<double>(j) + 0.5) / m;
            sum += samples[j] * std::cos(k * theta);
        }
        coeffs[k] = (k == 0 ? 1.0 : 2.0) * sum / m;
    }
    return coeffs;
}

double
chebyshevEvalPlain(const std::vector<double> &coeffs, double x)
{
    // Clenshaw recurrence.
    double b1 = 0.0, b2 = 0.0;
    for (size_t k = coeffs.size(); k-- > 1;) {
        const double b0 = coeffs[k] + 2.0 * x * b1 - b2;
        b2 = b1;
        b1 = b0;
    }
    return coeffs[0] + x * b1 - b2;
}

size_t
ChebyshevEvaluator::depthForDegree(size_t degree)
{
    size_t depth = 1; // base-case plaintext multiplication
    size_t m = 1;
    while (m <= degree) {
        m <<= 1;
        ++depth;
    }
    return depth;
}

Ciphertext
ChebyshevEvaluator::doubleIndex(const Ciphertext &tk) const
{
    // T_{2k} = 2 T_k^2 - 1.
    Ciphertext sq = evaluator_.rescale(evaluator_.square(tk, relinKey_));
    sq = evaluator_.mulInteger(sq, 2);
    return evaluator_.addConst(sq, {-1.0, 0.0});
}

ChebyshevEvaluator::BabyTable
ChebyshevEvaluator::computeBabies(const Ciphertext &x, size_t count) const
{
    BabyTable babies;
    babies.emplace(1, x);
    for (size_t k = 2; k <= count; ++k) {
        if (k % 2 == 0) {
            babies.emplace(k, doubleIndex(babies.at(k / 2)));
        } else {
            // T_{i+j} = 2 T_i T_j - T_{i-j} with i = (k+1)/2, j = k - i.
            const size_t i = (k + 1) / 2;
            const size_t j = k - i;
            Ciphertext prod = evaluator_.rescale(
                evaluator_.multiply(babies.at(i), babies.at(j), relinKey_));
            prod = evaluator_.mulInteger(prod, 2);
            babies.emplace(k, evaluator_.sub(prod, babies.at(i - j)));
        }
    }
    return babies;
}

Ciphertext
ChebyshevEvaluator::linearCombination(const std::vector<double> &coeffs,
                                      const BabyTable &babies) const
{
    // sum_k coeffs[k] T_k with the T_0 term folded in as a constant.
    // Work at the deepest baby level so every term aligns.
    size_t level = babies.at(1).level;
    for (const auto &[k, ct] : babies) {
        (void)k;
        level = std::min(level, ct.level);
    }

    // Every term lands on the scale nominal * qDrop exactly: choosing
    // each constant's scale per baby compensates that the babies carry
    // slightly different rescale histories. The terms then accumulate
    // as integer-scalar MACs, and the sum takes one rescale.
    const CkksContext &context = evaluator_.context();
    const double nominal = std::ldexp(1.0, context.params().logScale);
    const double sumScale =
        nominal * static_cast<double>(context.qBasis().prime(level - 1));
    Ciphertext acc;
    acc.level = level;
    acc.scale = sumScale;
    acc.b = Polynomial(context.levelBasis(level), Domain::Eval);
    acc.a = Polynomial(context.levelBasis(level), Domain::Eval);
    for (size_t k = 1; k < coeffs.size(); ++k) {
        if (std::abs(coeffs[k]) < 1e-12)
            continue;
        const Ciphertext &baby = babies.at(k);
        evaluator_.macConst(acc, baby, coeffs[k], sumScale / baby.scale);
    }
    acc = evaluator_.rescale(acc);
    acc.scale = nominal; // exact by construction of the constants' scales
    if (coeffs[0] != 0.0)
        acc = evaluator_.addConst(acc, {coeffs[0], 0.0});
    return acc;
}

Ciphertext
ChebyshevEvaluator::recurse(const std::vector<double> &coeffs, size_t m,
                            const BabyTable &babies,
                            const std::map<size_t, Ciphertext> &giants,
                            size_t babyBound) const
{
    if (coeffs.size() <= babyBound + 1)
        return linearCombination(coeffs, babies);

    // Split f = T_m * g + h using T_{m+i} = 2 T_m T_i - T_{m-i}.
    ANAHEIM_ASSERT(coeffs.size() <= 2 * m, "split point too small");
    std::vector<double> g(m, 0.0);
    std::vector<double> h(coeffs.begin(), coeffs.begin() + m);
    g[0] = coeffs.size() > m ? coeffs[m] : 0.0;
    for (size_t i = 1; m + i < coeffs.size(); ++i) {
        g[i] = 2.0 * coeffs[m + i];
        h[m - i] -= coeffs[m + i];
    }

    const Ciphertext gEval = recurse(g, m / 2, babies, giants, babyBound);
    const Ciphertext hEval = recurse(h, m / 2, babies, giants, babyBound);
    const auto it = giants.find(m);
    ANAHEIM_ASSERT(it != giants.end(), "missing giant step T_", m);
    Ciphertext result = evaluator_.rescale(
        evaluator_.multiply(gEval, it->second, relinKey_));
    return evaluator_.add(result, hEval);
}

Ciphertext
ChebyshevEvaluator::evaluate(const Ciphertext &x,
                             const std::vector<double> &coeffs) const
{
    ANAHEIM_ASSERT(!coeffs.empty(), "empty Chebyshev series");
    const size_t degree = coeffs.size() - 1;
    if (degree == 0) {
        Ciphertext out = evaluator_.rescale(
            evaluator_.mulConst(x, {0.0, 0.0}));
        return evaluator_.addConst(out, {coeffs[0], 0.0});
    }

    // Baby bound ~ sqrt(degree), rounded to a power of two.
    size_t babyBound = 1;
    while (babyBound * babyBound < degree + 1)
        babyBound <<= 1;

    const BabyTable babies = computeBabies(x, std::min(babyBound, degree));

    // Giant steps T_{babyBound * 2^j} up to the split point.
    std::map<size_t, Ciphertext> giants;
    if (degree > babyBound) {
        size_t idx = babyBound;
        Ciphertext current = babies.at(babyBound);
        giants.emplace(idx, current);
        while (idx * 2 <= degree) {
            idx *= 2;
            current = doubleIndex(current);
            giants.emplace(idx, current);
        }
    }

    // Outermost split point: largest power-of-two multiple of babyBound
    // not exceeding the degree.
    size_t m = babyBound;
    while (2 * m <= degree)
        m *= 2;
    return recurse(coeffs, m, babies, giants, babyBound);
}

} // namespace anaheim
