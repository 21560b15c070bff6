/**
 * @file
 * Kernel-level operation IR for the Anaheim performance model.
 *
 * The functional library (src/ckks, src/boot) establishes WHAT the op
 * sequences are; this IR describes each GPU/PIM kernel of those
 * sequences at the paper's parameters (N = 2^16, 32-bit words), so the
 * gpu/dram/pim models can reproduce the paper's time/energy analysis
 * without executing 2^16-point NTTs.
 *
 * Operand traffic is recorded symbolically (kind + limb count); the GPU
 * traffic model decides which operands hit DRAM under the MAD-style
 * caching assumptions of §V-D.
 *
 * A `KernelOp` is a fixed-size, heap-free record (DESIGN.md §19): its
 * phase is a `TracePhase` id whose text `tracePhaseName` holds, its
 * degree, limb and fan-in counts are 32-bit, and its operands sit in
 * inline lists of at most 3 reads and 1 write. A trace is a flat
 * vector of these records, so copying or appending a sub-trace is one
 * memory copy.
 */

#ifndef ANAHEIM_TRACE_KERNEL_H
#define ANAHEIM_TRACE_KERNEL_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace anaheim {

/** Kernel categories used in the paper's breakdown figures. */
enum class KernelClass {
    ElementWise, ///< the PIM-eligible ops (Table II)
    NttIntt,     ///< (I)NTT, compute-bound on GPUs (§IV-D)
    BConv,       ///< basis conversion matrix multiply
    Automorphism ///< pure data permutation
};

enum class KernelType : uint8_t {
    // Element-wise (PIM ISA, Table II).
    EwMove,
    EwAdd,
    EwSub,
    EwMult,
    EwMac,
    EwPMult,
    EwPMac,
    EwCAdd,
    EwCMult,
    EwCMac,
    EwTensor,
    EwTensorSq,
    EwModDownEp,
    EwPAccum,
    EwCAccum,
    // Compute kernels.
    Ntt,
    Intt,
    BConv,
    // Data movement.
    Automorphism,
};

KernelClass kernelClass(KernelType type);
const char *kernelTypeName(KernelType type);
const char *kernelClassName(KernelClass cls);

/** Phase tag for Gantt charts and grouping. */
enum class TracePhase : uint8_t {
    None,         ///< "" (ops built by hand, outside the builders)
    HAdd,         ///< "HADD"
    PMult,        ///< "PMULT"
    ModUp,        ///< "ModUp"
    KeyMult,      ///< "KeyMult"
    ModDown,      ///< "ModDown"
    Rescale,      ///< "Rescale"
    Tensor,       ///< "Tensor"
    Relin,        ///< "Relin"
    Mac,          ///< "MAC"
    Automorphism, ///< "Automorphism"
    AutAccum,     ///< "AutAccum"
    Accum,        ///< "Accum"
};

/** The phase's text, from one static table (the timeline's names). */
const std::string &tracePhaseName(TracePhase phase);

namespace detail {
[[noreturn]] void raiseTraceFieldOverflow(size_t value);
[[noreturn]] void raiseOperandListFull(size_t capacity);
} // namespace detail

/** `value` as a 32-bit trace field (a degree, limb or fan-in count);
 *  raises InvalidArgument when it does not fit. */
inline uint32_t
traceField(size_t value)
{
    if (value > std::numeric_limits<uint32_t>::max())
        detail::raiseTraceFieldOverflow(value);
    return static_cast<uint32_t>(value);
}

/** How an operand behaves in the cache (MAD [2] caching model). */
enum class OperandKind : uint8_t {
    Working,      ///< ciphertext polynomials currently being computed on
    Evk,          ///< evaluation keys: huge, streamed, one-time-use
    PlainConst,   ///< plaintext operands: streamed, one-time-use
    Intermediate, ///< producer-consumer temporary inside a sequence
};

struct Operand {
    Operand() = default;
    Operand(OperandKind kind, size_t limbs)
        : kind(kind), limbs(traceField(limbs))
    {
    }

    OperandKind kind = OperandKind::Working;
    /** Number of limbs (each limb is N words). */
    uint32_t limbs = 0;
};

/**
 * Up to `Capacity` operands, stored inline. Pushing past capacity
 * raises InvalidArgument in every build type.
 */
template <size_t Capacity>
class OperandList
{
  public:
    OperandList() = default;
    OperandList(std::initializer_list<Operand> operands)
    {
        for (const Operand &operand : operands)
            push_back(operand);
    }

    void
    push_back(const Operand &operand)
    {
        if (size_ == Capacity)
            detail::raiseOperandListFull(Capacity);
        items_[size_++] = operand;
    }

    void clear() { size_ = 0; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    Operand *begin() { return items_; }
    Operand *end() { return items_ + size_; }
    const Operand *begin() const { return items_; }
    const Operand *end() const { return items_ + size_; }
    const Operand &operator[](size_t i) const { return items_[i]; }

  private:
    Operand items_[Capacity] = {};
    uint8_t size_ = 0;
};

struct KernelOp {
    KernelType type = KernelType::EwMove;
    TracePhase phase = TracePhase::None;
    /** Whether Anaheim offloads this kernel to PIM when enabled. */
    bool pimEligible = false;
    /** Ring degree. */
    uint32_t n = 0;
    /** Limbs of output processed (drives the int-op count). */
    uint32_t limbs = 0;
    /** Accumulation fan-in K for PAccum/CAccum; input limb count for
     *  BConv. */
    uint32_t fanIn = 1;
    /** Three reads: an unfused hoisted PMAC reads its rotated pair, its
     *  plaintext and the running accumulator. */
    OperandList<3> reads;
    OperandList<1> writes;

    /** 32-bit integer-op count (modular mult ~ 5 int ops). */
    double intOps() const;
    /** Modular multiplication count (Table III's TOPS are mult+add). */
    double modMults() const;
    /** Total operand bytes on the read / write side (4-byte words). */
    double readBytes() const;
    double writeBytes() const;
};

static_assert(sizeof(KernelOp) <= 56, "KernelOp must stay compact");
static_assert(std::is_trivially_copyable_v<KernelOp>,
              "appending a sub-trace must be a plain copy");

/** A full workload/function trace plus its bookkeeping. */
struct OpSequence {
    std::string name;
    size_t n = 0;
    std::vector<KernelOp> ops;

    /** Append `copies` back-to-back copies of `other`'s ops. */
    void append(const OpSequence &other, size_t copies = 1);
    double totalIntOps() const;
    double totalBytes() const;
    size_t countType(KernelType type) const;
};

/** Bytes of one limb at the paper's 32-bit word size. */
inline double
limbBytes(size_t n)
{
    return 4.0 * static_cast<double>(n);
}

} // namespace anaheim

#endif // ANAHEIM_TRACE_KERNEL_H
