#include "kernel.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.h"
#include "common/status.h"

namespace anaheim {

KernelClass
kernelClass(KernelType type)
{
    switch (type) {
      case KernelType::Ntt:
      case KernelType::Intt:
        return KernelClass::NttIntt;
      case KernelType::BConv:
        return KernelClass::BConv;
      case KernelType::Automorphism:
        return KernelClass::Automorphism;
      default:
        return KernelClass::ElementWise;
    }
}

const char *
kernelTypeName(KernelType type)
{
    switch (type) {
      case KernelType::EwMove: return "Move";
      case KernelType::EwAdd: return "Add";
      case KernelType::EwSub: return "Sub";
      case KernelType::EwMult: return "Mult";
      case KernelType::EwMac: return "MAC";
      case KernelType::EwPMult: return "PMult";
      case KernelType::EwPMac: return "PMAC";
      case KernelType::EwCAdd: return "CAdd";
      case KernelType::EwCMult: return "CMult";
      case KernelType::EwCMac: return "CMAC";
      case KernelType::EwTensor: return "Tensor";
      case KernelType::EwTensorSq: return "TensorSq";
      case KernelType::EwModDownEp: return "ModDownEp";
      case KernelType::EwPAccum: return "PAccum";
      case KernelType::EwCAccum: return "CAccum";
      case KernelType::Ntt: return "NTT";
      case KernelType::Intt: return "INTT";
      case KernelType::BConv: return "BConv";
      case KernelType::Automorphism: return "Automorphism";
    }
    return "?";
}

const char *
kernelClassName(KernelClass cls)
{
    switch (cls) {
      case KernelClass::ElementWise: return "ElementWise";
      case KernelClass::NttIntt: return "(I)NTT";
      case KernelClass::BConv: return "BConv";
      case KernelClass::Automorphism: return "Automorphism";
    }
    return "?";
}

const std::string &
tracePhaseName(TracePhase phase)
{
    static const std::string names[] = {
        "",        "HADD",    "PMULT",  "ModUp", "KeyMult",
        "ModDown", "Rescale", "Tensor", "Relin", "MAC",
        "Automorphism",       "AutAccum",        "Accum",
    };
    static_assert(std::size(names) ==
                  static_cast<size_t>(TracePhase::Accum) + 1);
    return names[static_cast<size_t>(phase)];
}

namespace detail {

void
raiseTraceFieldOverflow(size_t value)
{
    ANAHEIM_RAISE(InvalidArgument, "trace field ", value,
                  " does not fit in 32 bits");
}

void
raiseOperandListFull(size_t capacity)
{
    ANAHEIM_RAISE(InvalidArgument, "a kernel op holds at most ", capacity,
                  capacity == 1 ? " operand" : " operands",
                  " on this side");
}

} // namespace detail

namespace {

/** Integer ops per data point for each element-wise kernel. A modular
 *  mult costs ~5 32-bit integer ops (Montgomery/Barrett), an add 1. */
double
intOpsPerPoint(KernelType type, size_t fanIn)
{
    constexpr double kMult = 5.0;
    constexpr double kAdd = 1.0;
    switch (type) {
      case KernelType::EwMove: return 0.0;
      case KernelType::EwAdd:
      case KernelType::EwSub:
      case KernelType::EwCAdd: return kAdd;
      case KernelType::EwMult:
      case KernelType::EwCMult: return kMult;
      case KernelType::EwMac:
      case KernelType::EwCMac: return kMult + kAdd;
      case KernelType::EwPMult: return 2.0 * kMult;
      case KernelType::EwPMac: return 2.0 * (kMult + kAdd);
      case KernelType::EwTensor: return 4.0 * kMult + kAdd;
      case KernelType::EwTensorSq: return 3.0 * kMult + kAdd;
      case KernelType::EwModDownEp: return kMult + kAdd;
      case KernelType::EwPAccum:
        return 2.0 * fanIn * (kMult + kAdd);
      case KernelType::EwCAccum:
        return 2.0 * fanIn * (kMult + kAdd);
      default:
        ANAHEIM_PANIC("not an element-wise kernel");
    }
}

double
modMultsPerPoint(KernelType type, size_t fanIn)
{
    switch (type) {
      case KernelType::EwMove:
      case KernelType::EwAdd:
      case KernelType::EwSub:
      case KernelType::EwCAdd: return 0.0;
      case KernelType::EwMult:
      case KernelType::EwCMult: return 1.0;
      case KernelType::EwMac:
      case KernelType::EwCMac: return 1.0;
      case KernelType::EwPMult: return 2.0;
      case KernelType::EwPMac: return 2.0;
      case KernelType::EwTensor: return 4.0;
      case KernelType::EwTensorSq: return 3.0;
      case KernelType::EwModDownEp: return 1.0;
      case KernelType::EwPAccum: return 2.0 * fanIn;
      case KernelType::EwCAccum: return 2.0 * fanIn;
      default:
        ANAHEIM_PANIC("not an element-wise kernel");
    }
}

} // namespace

double
KernelOp::modMults() const
{
    const double points = static_cast<double>(limbs) * n;
    switch (type) {
      case KernelType::Ntt:
      case KernelType::Intt:
        // FFT-based: N/2 log N butterflies, 1 mult each (§IX).
        return static_cast<double>(limbs) * (n / 2.0) *
               std::log2(static_cast<double>(n));
      case KernelType::BConv:
        // alpha x L matrix times L x N input: fanIn = input limb count,
        // limbs = output limb count, plus the qHatInv scaling stage.
        return points * static_cast<double>(fanIn) +
               static_cast<double>(fanIn) * n;
      case KernelType::Automorphism:
        return 0.0;
      default:
        return points * modMultsPerPoint(type, fanIn);
    }
}

double
KernelOp::intOps() const
{
    const double points = static_cast<double>(limbs) * n;
    switch (type) {
      case KernelType::Ntt:
      case KernelType::Intt:
        // ~8 integer ops per butterfly (mult + reduction + add/sub + twiddle handling).
        return static_cast<double>(limbs) * (n / 2.0) *
               std::log2(static_cast<double>(n)) * 8.0;
      case KernelType::BConv:
        return modMults() * 6.0;
      case KernelType::Automorphism:
        return 0.0;
      default:
        return points * intOpsPerPoint(type, fanIn);
    }
}

double
KernelOp::readBytes() const
{
    double total = 0.0;
    for (const auto &operand : reads)
        total += static_cast<double>(operand.limbs) * limbBytes(n);
    return total;
}

double
KernelOp::writeBytes() const
{
    double total = 0.0;
    for (const auto &operand : writes)
        total += static_cast<double>(operand.limbs) * limbBytes(n);
    return total;
}

void
OpSequence::append(const OpSequence &other, size_t copies)
{
    // Room for all copies at once, but never less than doubling, so a
    // loop of appends still grows geometrically.
    const size_t needed = ops.size() + copies * other.ops.size();
    if (needed > ops.capacity())
        ops.reserve(std::max(needed, 2 * ops.capacity()));
    for (size_t c = 0; c < copies; ++c)
        ops.insert(ops.end(), other.ops.begin(), other.ops.end());
}

double
OpSequence::totalIntOps() const
{
    double total = 0.0;
    for (const auto &op : ops)
        total += op.intOps();
    return total;
}

double
OpSequence::totalBytes() const
{
    double total = 0.0;
    for (const auto &op : ops)
        total += op.readBytes() + op.writeBytes();
    return total;
}

size_t
OpSequence::countType(KernelType type) const
{
    size_t count = 0;
    for (const auto &op : ops)
        count += op.type == type ? 1 : 0;
    return count;
}

} // namespace anaheim
