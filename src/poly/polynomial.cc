#include "polynomial.h"

#include "common/logging.h"
#include "common/parallel.h"
#include "math/automorph.h"
#include "math/kernels.h"
#include "math/modarith.h"

namespace anaheim {

Polynomial::Polynomial(RnsBasis basis, Domain domain)
    : basis_(std::move(basis)), domain_(domain)
{
    limbs_.assign(basis_.size(), CoeffVector(basis_.degree(), 0));
}

void
Polynomial::toEval()
{
    if (domain_ == Domain::Eval)
        return;
    parallelFor(0, limbs_.size(),
                [&](size_t i) { basis_.table(i).forward(limbs_[i]); });
    domain_ = Domain::Eval;
}

void
Polynomial::toCoeff()
{
    if (domain_ == Domain::Coeff)
        return;
    parallelFor(0, limbs_.size(),
                [&](size_t i) { basis_.table(i).inverse(limbs_[i]); });
    domain_ = Domain::Coeff;
}

void
Polynomial::checkCompatible(const Polynomial &other) const
{
    ANAHEIM_ASSERT(limbs_.size() <= other.limbs_.size(),
                   "limb count mismatch: ", limbs_.size(), " vs ",
                   other.limbs_.size());
    ANAHEIM_ASSERT(domain_ == other.domain_, "domain mismatch");
    for (size_t i = 0; i < limbs_.size(); ++i) {
        ANAHEIM_ASSERT(basis_.prime(i) == other.basis_.prime(i),
                       "prime mismatch at limb ", i);
    }
}

Polynomial &
Polynomial::operator+=(const Polynomial &other)
{
    checkCompatible(other);
    const kernels::KernelOps &ops = kernels::active();
    parallelFor(0, limbs_.size(), [&](size_t i) {
        auto &dst = limbs_[i];
        ops.addMod(dst.data(), dst.data(), other.limbs_[i].data(),
                   dst.size(), basis_.prime(i));
    });
    return *this;
}

Polynomial &
Polynomial::operator-=(const Polynomial &other)
{
    checkCompatible(other);
    const kernels::KernelOps &ops = kernels::active();
    parallelFor(0, limbs_.size(), [&](size_t i) {
        auto &dst = limbs_[i];
        ops.subMod(dst.data(), dst.data(), other.limbs_[i].data(),
                   dst.size(), basis_.prime(i));
    });
    return *this;
}

Polynomial &
Polynomial::mulEq(const Polynomial &other)
{
    checkCompatible(other);
    const kernels::KernelOps &ops = kernels::active();
    parallelFor(0, limbs_.size(), [&](size_t i) {
        auto &dst = limbs_[i];
        ops.mulBarrett(dst.data(), dst.data(), other.limbs_[i].data(),
                       dst.size(), basis_.table(i).barrett());
    });
    return *this;
}

Polynomial &
Polynomial::macEq(const Polynomial &a, const Polynomial &b)
{
    checkCompatible(a);
    checkCompatible(b);
    const kernels::KernelOps &ops = kernels::active();
    parallelFor(0, limbs_.size(), [&](size_t i) {
        auto &dst = limbs_[i];
        ops.macBarrett(dst.data(), a.limbs_[i].data(),
                       b.limbs_[i].data(), dst.size(),
                       basis_.table(i).barrett());
    });
    return *this;
}

Polynomial &
Polynomial::negate()
{
    const kernels::KernelOps &ops = kernels::active();
    parallelFor(0, limbs_.size(), [&](size_t i) {
        auto &dst = limbs_[i];
        ops.negMod(dst.data(), dst.data(), dst.size(), basis_.prime(i));
    });
    return *this;
}

Polynomial &
Polynomial::mulScalarEq(const std::vector<uint64_t> &scalarPerLimb)
{
    ANAHEIM_ASSERT(scalarPerLimb.size() == limbs_.size(),
                   "scalar vector size mismatch");
    const kernels::KernelOps &ops = kernels::active();
    parallelFor(0, limbs_.size(), [&](size_t i) {
        const uint64_t q = basis_.prime(i);
        const ShoupMul prepared(scalarPerLimb[i] % q, q);
        auto &dst = limbs_[i];
        ops.mulShoup(dst.data(), dst.data(), dst.size(),
                     prepared.operand(), prepared.precon(), q);
    });
    return *this;
}

Polynomial &
Polynomial::macScalarEq(const Polynomial &a,
                        const std::vector<uint64_t> &scalarPerLimb)
{
    checkCompatible(a);
    ANAHEIM_ASSERT(scalarPerLimb.size() == limbs_.size(),
                   "scalar vector size mismatch");
    const kernels::KernelOps &ops = kernels::active();
    parallelFor(0, limbs_.size(), [&](size_t i) {
        const uint64_t q = basis_.prime(i);
        const ShoupMul prepared(scalarPerLimb[i] % q, q);
        auto &dst = limbs_[i];
        ops.mulShoupAcc(dst.data(), a.limbs_[i].data(), dst.size(),
                        prepared.operand(), prepared.precon(), q, q);
    });
    return *this;
}

Polynomial &
Polynomial::addScalarEq(const std::vector<uint64_t> &scalarPerLimb)
{
    ANAHEIM_ASSERT(scalarPerLimb.size() == limbs_.size(),
                   "scalar vector size mismatch");
    parallelFor(0, limbs_.size(), [&](size_t i) {
        const uint64_t q = basis_.prime(i);
        const uint64_t c = scalarPerLimb[i] % q;
        for (uint64_t &v : limbs_[i])
            v = addMod(v, c, q);
    });
    return *this;
}

Polynomial
Polynomial::automorphism(uint64_t k) const
{
    const size_t n = degree();
    ANAHEIM_ASSERT((k & 1) == 1 && k < 2 * n, "Galois element must be odd");
    Polynomial out(basis_, domain_);
    // Both domains reduce to a gather permutation (with sign wraps on
    // coefficients); the shared tables depend only on (n, k), and the
    // active kernel backend runs the inner loop vectorized.
    const auto tbl = domain_ == Domain::Coeff
                         ? coeffAutomorphismTable(n, k)
                         : evalAutomorphismTable(basis_.table(0), k);
    const kernels::KernelOps &ops = kernels::active();
    parallelFor(0, limbs_.size(), [&](size_t i) {
        ops.permuteNeg(out.limbs_[i].data(), limbs_[i].data(),
                       tbl->data(), n, basis_.prime(i));
    });
    return out;
}

Polynomial &
Polynomial::mulMonomialEq(size_t power)
{
    const size_t n = degree();
    ANAHEIM_ASSERT(power < 2 * n, "monomial power out of range");
    if (power == 0)
        return *this;
    const Domain original = domain_;
    toCoeff();
    parallelFor(0, limbs_.size(), [&](size_t i) {
        const uint64_t q = basis_.prime(i);
        const auto &src = limbs_[i];
        CoeffVector dst(n);
        for (size_t c = 0; c < n; ++c) {
            const size_t target = (c + power) % (2 * n);
            if (target < n)
                dst[target] = src[c];
            else
                dst[target - n] = negMod(src[c], q);
        }
        limbs_[i] = std::move(dst);
    });
    if (original == Domain::Eval)
        toEval();
    return *this;
}

Polynomial
Polynomial::firstLimbs(size_t count) const
{
    ANAHEIM_ASSERT(count <= limbs_.size(), "firstLimbs out of range");
    Polynomial out;
    out.basis_ = basis_.slice(0, count);
    out.domain_ = domain_;
    out.limbs_.assign(limbs_.begin(), limbs_.begin() + count);
    return out;
}

bool
Polynomial::operator==(const Polynomial &other) const
{
    if (limbs_.size() != other.limbs_.size() || domain_ != other.domain_)
        return false;
    for (size_t i = 0; i < limbs_.size(); ++i) {
        if (basis_.prime(i) != other.basis_.prime(i) ||
            limbs_[i] != other.limbs_[i]) {
            return false;
        }
    }
    return true;
}

Polynomial
polynomialFromSigned(const RnsBasis &basis,
                     const std::vector<int64_t> &coeffs)
{
    ANAHEIM_ASSERT(coeffs.size() == basis.degree(),
                   "coefficient count mismatch");
    Polynomial out(basis, Domain::Coeff);
    for (size_t i = 0; i < basis.size(); ++i) {
        const Barrett &br = basis.table(i).barrett();
        for (size_t c = 0; c < coeffs.size(); ++c)
            out.limb(i)[c] = fromSigned(coeffs[c], br);
    }
    return out;
}

CoeffVector
negacyclicMultiply(const CoeffVector &a, const CoeffVector &b, uint64_t q)
{
    const size_t n = a.size();
    ANAHEIM_ASSERT(b.size() == n, "size mismatch");
    CoeffVector out(n, 0);
    for (size_t i = 0; i < n; ++i) {
        if (a[i] == 0)
            continue;
        for (size_t j = 0; j < n; ++j) {
            const uint64_t prod = mulMod(a[i], b[j], q);
            const size_t idx = i + j;
            if (idx < n)
                out[idx] = addMod(out[idx], prod, q);
            else
                out[idx - n] = subMod(out[idx - n], prod, q);
        }
    }
    return out;
}

} // namespace anaheim
