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
 */

#ifndef ANAHEIM_TRACE_KERNEL_H
#define ANAHEIM_TRACE_KERNEL_H

#include <cstddef>
#include <string>
#include <vector>

namespace anaheim {

/** Kernel categories used in the paper's breakdown figures. */
enum class KernelClass {
    ElementWise, ///< the PIM-eligible ops (Table II)
    NttIntt,     ///< (I)NTT, compute-bound on GPUs (§IV-D)
    BConv,       ///< basis conversion matrix multiply
    Automorphism ///< pure data permutation
};

enum class KernelType {
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

/** How an operand behaves in the cache (MAD [2] caching model). */
enum class OperandKind {
    Working,      ///< ciphertext polynomials currently being computed on
    Evk,          ///< evaluation keys: huge, streamed, one-time-use
    PlainConst,   ///< plaintext operands: streamed, one-time-use
    Intermediate, ///< producer-consumer temporary inside a sequence
};

struct Operand {
    OperandKind kind;
    /** Number of limbs (each limb is N words). */
    size_t limbs;
};

struct KernelOp {
    KernelType type;
    /** Phase tag for Gantt charts / grouping: "ModUp", "KeyMult",
     *  "AutAccum", "ModDown", ... */
    std::string phase;
    /** Ring degree. */
    size_t n = 0;
    /** Limbs of output processed (drives the int-op count). */
    size_t limbs = 0;
    /** Accumulation fan-in K for PAccum/CAccum; input limb count for
     *  BConv. */
    size_t fanIn = 1;
    std::vector<Operand> reads;
    std::vector<Operand> writes;
    /** Whether Anaheim offloads this kernel to PIM when enabled. */
    bool pimEligible = false;

    /** 32-bit integer-op count (modular mult ~ 5 int ops). */
    double intOps() const;
    /** Modular multiplication count (Table III's TOPS are mult+add). */
    double modMults() const;
    /** Total operand bytes on the read / write side (4-byte words). */
    double readBytes() const;
    double writeBytes() const;
};

/** A full workload/function trace plus its bookkeeping. */
struct OpSequence {
    std::string name;
    size_t n = 0;
    std::vector<KernelOp> ops;

    void append(const OpSequence &other);
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
