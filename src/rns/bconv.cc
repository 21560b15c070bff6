#include "bconv.h"

#include "common/logging.h"
#include "common/status.h"
#include "common/parallel.h"
#include "math/kernels.h"
#include "math/modarith.h"

namespace anaheim {

BasisConverter::BasisConverter(const RnsBasis &source, const RnsBasis &target)
    : source_(source), target_(target)
{
    const size_t ls = source_.size();
    const size_t lt = target_.size();
    ANAHEIM_CHECK(ls > 0 && lt > 0, InvalidArgument,
                  "empty basis in BConv");

    qHatInv_.resize(ls);
    qHatModP_.assign(ls, std::vector<ShoupMul>(lt));
    for (size_t i = 0; i < ls; ++i) {
        const uint64_t qi = source_.prime(i);
        // qHat_i = prod_{k != i} q_k, computed mod q_i and mod each p_j.
        // Both factors are broadcast against whole limbs at convert
        // time, so each is stored with its Shoup companion.
        uint64_t hatModQi = 1;
        for (size_t k = 0; k < ls; ++k) {
            if (k != i)
                hatModQi = mulMod(hatModQi, source_.prime(k) % qi, qi);
        }
        qHatInv_[i] = ShoupMul(invMod(hatModQi, qi), qi);
        for (size_t j = 0; j < lt; ++j) {
            const uint64_t pj = target_.prime(j);
            uint64_t hatModPj = 1;
            for (size_t k = 0; k < ls; ++k) {
                if (k != i)
                    hatModPj = mulMod(hatModPj, source_.prime(k) % pj, pj);
            }
            qHatModP_[i][j] = ShoupMul(hatModPj, pj);
        }
    }
}

std::vector<CoeffVector>
BasisConverter::convert(
    const std::vector<CoeffVector> &input) const
{
    const size_t ls = source_.size();
    const size_t lt = target_.size();
    ANAHEIM_CHECK(input.size() == ls, InvalidArgument,
                  "BConv limb count mismatch: got ", input.size(),
                  ", source basis has ", ls);
    const size_t n = input[0].size();
    ANAHEIM_CHECK(n > 0, InvalidArgument,
                  "BConv input has zero-length limbs");
    // A ragged input (limb i shorter than limb 0) would read out of
    // bounds in stage 2; validate every limb length up front.
    for (size_t i = 1; i < ls; ++i) {
        ANAHEIM_CHECK(input[i].size() == n, InvalidArgument,
                      "BConv ragged input: limb ", i, " has ",
                      input[i].size(), " coefficients, expected ", n);
    }

    // Stage 1: y_i = a_i * qHatInv_i mod q_i. Source limbs are
    // independent — one task per limb.
    const kernels::KernelOps &ops = kernels::active();
    std::vector<CoeffVector> scaled(ls);
    parallelFor(0, ls, [&](size_t i) {
        const ShoupMul &factor = qHatInv_[i];
        scaled[i].resize(n);
        ops.mulShoup(scaled[i].data(), input[i].data(), n,
                     factor.operand(), factor.precon(),
                     source_.prime(i));
    });

    // Stage 2: out_j = sum_i y_i * (qHat_i mod p_j) mod p_j. Target
    // limbs are independent; the i-accumulation order within each limb
    // is unchanged, keeping results bitwise identical to serial. y_i is
    // a residue of the source prime q_i, not of p_j, so q_i is the
    // input bound the kernel gets (a backend with narrow lanes must not
    // infer it from p_j).
    std::vector<CoeffVector> output(lt);
    parallelFor(0, lt, [&](size_t j) {
        const uint64_t pj = target_.prime(j);
        output[j].assign(n, 0);
        for (size_t i = 0; i < ls; ++i) {
            const ShoupMul &factor = qHatModP_[i][j];
            ops.mulShoupAcc(output[j].data(), scaled[i].data(), n,
                            factor.operand(), factor.precon(), pj,
                            source_.prime(i));
        }
    });
    return output;
}

std::vector<uint64_t>
BasisConverter::convertScalar(const std::vector<uint64_t> &residues) const
{
    // Direct scalar path: the same two stages as convert() against the
    // precomputed tables, one coefficient at a time, so the tests can
    // check the vector kernels against it.
    const size_t ls = source_.size();
    const size_t lt = target_.size();
    ANAHEIM_ASSERT(residues.size() == ls,
                   "BConv scalar residue count mismatch: got ",
                   residues.size(), ", source basis has ", ls);
    std::vector<uint64_t> result(lt);
    for (size_t j = 0; j < lt; ++j) {
        const uint64_t pj = target_.prime(j);
        uint64_t acc = 0;
        for (size_t i = 0; i < ls; ++i) {
            const uint64_t scaled =
                qHatInv_[i].mul(residues[i], source_.prime(i));
            acc = addMod(acc, qHatModP_[i][j].mul(scaled, pj), pj);
        }
        result[j] = acc;
    }
    return result;
}

} // namespace anaheim
