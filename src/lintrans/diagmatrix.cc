#include "diagmatrix.h"

#include "common/logging.h"

namespace anaheim {

std::vector<DiagMatrix::Complex> &
DiagMatrix::diagonal(size_t d)
{
    ANAHEIM_ASSERT(d < slots_, "diagonal index out of range");
    auto it = diags_.find(d);
    if (it == diags_.end())
        it = diags_.emplace(d, std::vector<Complex>(slots_, 0.0)).first;
    return it->second;
}

std::vector<DiagMatrix::Complex>
DiagMatrix::apply(const std::vector<Complex> &input) const
{
    ANAHEIM_ASSERT(input.size() == slots_, "vector size mismatch");
    std::vector<Complex> out(slots_, 0.0);
    for (const auto &[d, diag] : diags_) {
        for (size_t i = 0; i < slots_; ++i)
            out[i] += diag[i] * input[(i + d) % slots_];
    }
    return out;
}

DiagMatrix::Complex
DiagMatrix::at(size_t row, size_t col) const
{
    const size_t d = (col + slots_ - row) % slots_;
    const auto it = diags_.find(d);
    return it == diags_.end() ? Complex{0.0, 0.0} : it->second[row];
}

DiagMatrix
DiagMatrix::compose(const DiagMatrix &other) const
{
    ANAHEIM_ASSERT(slots_ == other.slots_, "slot count mismatch");
    // (this * other) diagonal e: sum over d1 + d2 = e (mod n) of
    // diag1_{d1}[i] * diag2_{d2}[(i + d1) mod n].
    DiagMatrix out(slots_);
    for (const auto &[d1, diag1] : diags_) {
        for (const auto &[d2, diag2] : other.diags_) {
            const size_t e = (d1 + d2) % slots_;
            auto &dst = out.diagonal(e);
            for (size_t i = 0; i < slots_; ++i)
                dst[i] += diag1[i] * diag2[(i + d1) % slots_];
        }
    }
    return out;
}

DiagMatrix &
DiagMatrix::scale(Complex factor)
{
    for (auto &[d, diag] : diags_) {
        (void)d;
        for (auto &v : diag)
            v *= factor;
    }
    return *this;
}

DiagMatrix
DiagMatrix::random(size_t slots, const std::vector<size_t> &diags, Rng &rng)
{
    DiagMatrix out(slots);
    for (size_t d : diags) {
        auto &diag = out.diagonal(d);
        for (auto &v : diag) {
            v = {2.0 * rng.uniformReal() - 1.0,
                 2.0 * rng.uniformReal() - 1.0};
        }
    }
    return out;
}

} // namespace anaheim
