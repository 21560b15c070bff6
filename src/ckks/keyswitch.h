/**
 * @file
 * Hybrid keyswitching core: ModUp -> KeyMult -> ModDown (§II-B, Fig. 1).
 *
 * These are the three phases Anaheim's analysis revolves around: ModUp /
 * ModDown are ModSwitch variants (INTT + BConv + NTT), while KeyMult is
 * a pure element-wise multiply-accumulate over the extended modulus PQ —
 * the op class offloaded to PIM.
 */

#ifndef ANAHEIM_CKKS_KEYSWITCH_H
#define ANAHEIM_CKKS_KEYSWITCH_H

#include <utility>
#include <vector>

#include "context.h"
#include "keys.h"
#include "poly/polynomial.h"

namespace anaheim {

class KeySwitcher
{
  public:
    explicit KeySwitcher(const CkksContext &context) : context_(context) {}

    /**
     * Decompose a level-l polynomial (Eval domain) into its keyswitching
     * digits and raise each to the extended basis Q_l || P.
     */
    std::vector<Polynomial> modUp(const Polynomial &a) const;

    /**
     * Element-wise accumulation sum_j digits[j] * evk_j over the
     * extended basis Q_l || P, reading the evk's Q_l and P limbs in
     * place; returns the (d0, d1) pair.
     */
    std::pair<Polynomial, Polynomial> keyMult(
        const std::vector<Polynomial> &digits, const EvalKey &evk) const;

    /** Scale an extended-basis polynomial back down by P into Q_l. */
    Polynomial modDown(const Polynomial &extended) const;

    /** Full keyswitch of `a` under `evk`: ModUp, KeyMult, ModDown. */
    std::pair<Polynomial, Polynomial> keySwitch(const Polynomial &a,
                                                const EvalKey &evk) const;

  private:
    const CkksContext &context_;
};

} // namespace anaheim

#endif // ANAHEIM_CKKS_KEYSWITCH_H
