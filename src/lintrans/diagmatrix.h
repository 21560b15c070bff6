/**
 * @file
 * Diagonal-packed representation of a linear transform on slot vectors
 * (Halevi–Shoup [32]), the form every homomorphic linear-transform
 * algorithm in the paper consumes: (M u)_i = sum_d diag_d[i] *
 * u[(i+d) mod n], so M u = sum_d diag_d ⊙ (u <<< d).
 */

#ifndef ANAHEIM_LINTRANS_DIAGMATRIX_H
#define ANAHEIM_LINTRANS_DIAGMATRIX_H

#include <complex>
#include <cstddef>
#include <map>
#include <vector>

#include "common/rng.h"

namespace anaheim {

class DiagMatrix
{
  public:
    using Complex = std::complex<double>;

    DiagMatrix() = default;
    explicit DiagMatrix(size_t slots) : slots_(slots) {}

    size_t slots() const { return slots_; }

    /** Diagonal accessor; creates the diagonal zero-filled. */
    std::vector<Complex> &diagonal(size_t d);
    const std::map<size_t, std::vector<Complex>> &diagonals() const
    {
        return diags_;
    }
    size_t diagonalCount() const { return diags_.size(); }

    /** Reference application to a plain vector (tests / planning). */
    std::vector<Complex> apply(const std::vector<Complex> &input) const;

    /** Matrix product this * other (apply `other` first). */
    DiagMatrix compose(const DiagMatrix &other) const;

    /** Scale every entry by a constant. */
    DiagMatrix &scale(Complex factor);

    /** Dense element M[row][col]; zero when off every stored diagonal.*/
    Complex at(size_t row, size_t col) const;

    /** Random test matrix with the given diagonal indices. */
    static DiagMatrix random(size_t slots, const std::vector<size_t> &diags,
                             Rng &rng);

  private:
    size_t slots_ = 0;
    std::map<size_t, std::vector<Complex>> diags_;
};

} // namespace anaheim

#endif // ANAHEIM_LINTRANS_DIAGMATRIX_H
