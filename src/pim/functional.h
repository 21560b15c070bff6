/**
 * @file
 * Functional (bit-level) model of the Anaheim PIM unit: eight MMAC
 * lanes with the 28-bit Montgomery reduction datapath of §VI-A,
 * executing the Table II instructions on real polynomial data. Used to
 * verify that PIM offloading computes exactly what the GPU kernels
 * would (tests cross-check against src/poly).
 *
 * Values are stored as 32-bit words in DRAM and truncated to 28 bits
 * when entering the unit, mirroring the hardware.
 */

#ifndef ANAHEIM_PIM_FUNCTIONAL_H
#define ANAHEIM_PIM_FUNCTIONAL_H

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "isa.h"
#include "math/montgomery.h"
#include "sim/readpath.h"

namespace anaheim {

/** One limb's worth of data for a PIM operand (32-bit words). */
using PimVector = std::vector<uint32_t>;

class PimFunctionalUnit
{
  public:
    /** @param q Prime below 2^28 (broadcast with the instruction). */
    explicit PimFunctionalUnit(uint64_t q);

    uint64_t modulus() const { return q_; }

    /**
     * Route every operand word read, every result word stored, and
     * every post-multiply lane value through a fault-injection + ECC
     * datapath (non-owning; pass nullptr to detach). With no path
     * attached, accesses are direct and the results are bitwise
     * identical to the fault-free model.
     */
    void attachReadPath(PimDataPath *path) { readPath_ = path; }

    /** @name Table II instructions (plain-domain semantics). */
    /// @{
    PimVector move(const PimVector &a) const;
    PimVector neg(const PimVector &a) const;
    PimVector add(const PimVector &a, const PimVector &b) const;
    PimVector sub(const PimVector &a, const PimVector &b) const;
    PimVector mult(const PimVector &a, const PimVector &b) const;
    PimVector mac(const PimVector &a, const PimVector &b,
                  const PimVector &c) const;
    /** x = a*p, y = b*p. */
    std::pair<PimVector, PimVector> pMult(const PimVector &a,
                                          const PimVector &b,
                                          const PimVector &p) const;
    PimVector cAdd(const PimVector &a, uint32_t constant) const;
    PimVector cMult(const PimVector &a, uint32_t constant) const;
    PimVector cMac(const PimVector &a, const PimVector &b,
                   uint32_t constant) const;
    /** x = a*c, y = a*d + b*c, z = b*d. */
    std::array<PimVector, 3> tensor(const PimVector &a, const PimVector &b,
                                    const PimVector &c,
                                    const PimVector &d) const;
    /** x = C * (a - b). */
    PimVector modDownEp(const PimVector &a, const PimVector &b,
                        uint32_t constant) const;
    /** x = sum a_i * p_i, y = sum b_i * p_i. */
    std::pair<PimVector, PimVector> pAccum(
        const std::vector<PimVector> &a, const std::vector<PimVector> &b,
        const std::vector<PimVector> &p) const;
    /// @}

  private:
    /** Modular product of two lane inputs at element `i`; the result
     *  rides the MMAC transient fault site when a path is attached. */
    uint32_t laneMul(uint32_t a, uint32_t b, size_t i) const;
    uint32_t laneAdd(uint32_t a, uint32_t b) const;
    uint32_t laneSub(uint32_t a, uint32_t b) const;
    /** Truncate/reduce a broadcast constant and lift it into Montgomery
     *  form once, for the keep-in-form cMult/cMac lane loops. */
    uint32_t prepareConstant(uint32_t constant) const;

    /** One operand word entering the unit, via the resilient datapath
     *  when one is attached. `slot` is the operand's position within
     *  the instruction (a, b, c, ... = 0, 1, 2, ...), so different
     *  operands never share fault sites. */
    uint32_t read(const PimVector &a, size_t i, size_t slot = 0) const
    {
        return readPath_ ? readPath_->readWord(a[i], operandWord(slot, i))
                         : a[i];
    }

    /** Post-multiply lane value at element `i` through the (uncoded)
     *  MMAC transient fault site. */
    uint32_t lane(uint32_t value, size_t i) const
    {
        return readPath_ ? readPath_->laneValue(value, i) : value;
    }

    /** Store an instruction's result vector through the write-back
     *  drivers. `slot` separates multi-output instructions (x, y, z =
     *  0, 1, 2) so outputs never share fault sites. */
    void writeOut(PimVector &out, size_t slot = 0) const
    {
        if (readPath_ == nullptr)
            return;
        for (size_t i = 0; i < out.size(); ++i)
            out[i] = readPath_->writeWord(out[i], operandWord(slot, i));
    }

    uint64_t q_;
    Montgomery mont_;
    PimDataPath *readPath_ = nullptr;
};

} // namespace anaheim

#endif // ANAHEIM_PIM_FUNCTIONAL_H
