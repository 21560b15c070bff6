/**
 * @file
 * Host-work counts: what the host does for a piece of work, counted
 * exactly rather than timed (ROADMAP item 11). Wall time is too noisy
 * to gate; an allocation count is deterministic for one build.
 *
 * This binary replaces the global operator new/delete with malloc-backed
 * versions that count calls while counting is on, which is why it is
 * its own test executable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "anaheim/workloads.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "common/parallel.h"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<uint64_t> gAllocations{0};

void *
allocate(std::size_t bytes)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes == 0 ? 1 : bytes);
}

void *
allocateAligned(std::size_t bytes, std::align_val_t align)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = ((bytes == 0 ? 1 : bytes) + a - 1) / a * a;
    return std::aligned_alloc(a, rounded);
}

/** Kept out of line: a delete inlined down to free() on a pointer from
 *  operator new trips GCC's -Wmismatched-new-delete. */
[[gnu::noinline]] void
release(void *p) noexcept
{
    std::free(p);
}

/** Heap allocations made while `fn` runs. */
template <class Fn>
uint64_t
allocationsDuring(Fn &&fn)
{
    const uint64_t before = gAllocations.load();
    gCounting.store(true);
    fn();
    gCounting.store(false);
    return gAllocations.load() - before;
}

} // namespace

void *
operator new(std::size_t bytes)
{
    if (void *p = allocate(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    return operator new(bytes);
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    if (void *p = allocateAligned(bytes, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    return operator new(bytes, align);
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return allocate(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return allocate(bytes);
}

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, std::align_val_t) noexcept { release(p); }
void operator delete[](void *p, std::align_val_t) noexcept { release(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

namespace anaheim {
namespace {

TEST(HostWork, TraceBuildAllocatesPerSequenceNotPerOp)
{
    // A trace is a vector of fixed-size records, and each repeated
    // sub-trace is built once per workload: the heap sees the vectors
    // grow, not one allocation per op or operand.
    std::vector<std::pair<WorkloadInfo, OpSequence>> workloads;
    const uint64_t allocations =
        allocationsDuring([&] { workloads = makeAllWorkloads(); });
    size_t ops = 0;
    for (const auto &[info, seq] : workloads)
        ops += seq.ops.size();
    std::printf("makeAllWorkloads(): %llu heap allocations for %zu ops\n",
                static_cast<unsigned long long>(allocations), ops);
    EXPECT_LT(allocations * 10, ops);
}

TEST(HostWork, KeyswitchOpsAllocateNoMoreThanPinned)
{
    // One keyMult, one HMult (multiply + relinearize) and one HRot at
    // the op-mix parameters, each counted after a warm-up call on one
    // thread. The pins are the counts before keyMult moved to the
    // kernels' inner product (whose operand tables live on the stack):
    // a kernel change may lower them, never raise them.
    constexpr uint64_t kKeyMultPin = 35;
    constexpr uint64_t kHMultPin = 327;
    constexpr uint64_t kHRotPin = 315;

    const size_t savedThreads = parallelThreadCount();
    setParallelThreads(1);
    const CkksContext context(CkksParams::testParams(1 << 12, 8, 2));
    const CkksEncoder encoder(context);
    KeyGenerator keygen(context, 1);
    CkksEncryptor encryptor(context, 2);
    const CkksEvaluator evaluator(context, encoder);
    const EvalKey relin = keygen.makeRelinKey();
    const GaloisKeys galois = keygen.makeGaloisKeys({5});
    const std::vector<std::complex<double>> msg(encoder.slots(), {0.5, 0.25});
    const Ciphertext x = encryptor.encrypt(
        encoder.encode(msg, context.maxLevel()), keygen.secretKey());
    const KeySwitcher &ks = evaluator.keySwitcher();
    const std::vector<Polynomial> digits = ks.modUp(x.a);

    auto warmCount = [](const auto &fn) {
        fn();
        return allocationsDuring(fn);
    };
    const uint64_t keyMult =
        warmCount([&] { (void)ks.keyMult(digits, relin); });
    const uint64_t hmult =
        warmCount([&] { (void)evaluator.multiply(x, x, relin); });
    const uint64_t hrot =
        warmCount([&] { (void)evaluator.rotate(x, 5, galois); });
    setParallelThreads(savedThreads);

    std::printf("keyMult %llu, HMult %llu, HRot %llu heap allocations\n",
                static_cast<unsigned long long>(keyMult),
                static_cast<unsigned long long>(hmult),
                static_cast<unsigned long long>(hrot));
    EXPECT_LE(keyMult, kKeyMultPin);
    EXPECT_LE(hmult, kHMultPin);
    EXPECT_LE(hrot, kHRotPin);
}

} // namespace
} // namespace anaheim
