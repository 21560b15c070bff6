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
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "anaheim/workloads.h"

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

} // namespace
} // namespace anaheim
