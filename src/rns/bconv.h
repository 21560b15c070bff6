/**
 * @file
 * Fast RNS basis conversion (BConv, §II-B of the paper).
 *
 * Given the residues of a value in a source basis {q_0..q_{L-1}}, produce
 * its residues in a disjoint target basis {p_0..p_{A-1}} without leaving
 * RNS. This is the standard "fast/approximate" conversion of full-RNS
 * CKKS: the result may carry an additive e*Q overflow with 0 <= e < L,
 * which downstream CKKS noise analysis absorbs.
 *
 * Computationally this is the alpha x L constant matrix multiplied by an
 * L x N coefficient matrix — exactly the op the paper's BConv kernels
 * model.
 */

#ifndef ANAHEIM_RNS_BCONV_H
#define ANAHEIM_RNS_BCONV_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/aligned.h"

#include "basis.h"
#include "math/modarith.h"

namespace anaheim {

/**
 * Precomputed converter from one basis to another.
 *
 * Inputs must be in coefficient (non-NTT) domain; conversion is
 * coefficient-wise.
 */
class BasisConverter
{
  public:
    BasisConverter(const RnsBasis &source, const RnsBasis &target);

    const RnsBasis &source() const { return source_; }
    const RnsBasis &target() const { return target_; }

    /**
     * Convert limb-major data: input[i] holds N residues mod source
     * prime i; returns target.size() limbs of N residues.
     */
    std::vector<CoeffVector> convert(
        const std::vector<CoeffVector> &input) const;

    /** Conversion of one coefficient: the scalar reference the tests
     *  check convert() against. */
    std::vector<uint64_t> convertScalar(
        const std::vector<uint64_t> &residues) const;

  private:
    RnsBasis source_;
    RnsBasis target_;
    /** (Q/q_i)^-1 mod q_i for each source prime, Shoup-prepared: the
     *  stage-1 scaling is a broadcast of a fixed constant per limb. */
    std::vector<ShoupMul> qHatInv_;
    /** (Q/q_i) mod p_j, indexed [i][j], Shoup-prepared against p_j for
     *  the stage-2 inner product. */
    std::vector<std::vector<ShoupMul>> qHatModP_;
};

} // namespace anaheim

#endif // ANAHEIM_RNS_BCONV_H
