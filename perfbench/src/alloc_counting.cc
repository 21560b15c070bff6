/**
 * @file
 * Allocation tally for perfbench_traced: replaces the global operator
 * new/delete family with malloc-backed versions that count calls and
 * bytes while counting is switched on (one relaxed load otherwise). The
 * end-to-end binary links alloc_stock.cc instead and keeps the
 * toolchain's allocator path untouched.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<uint64_t> gCalls{0};
std::atomic<uint64_t> gBytes{0};

void
tally(std::size_t bytes)
{
    if (gCounting.load(std::memory_order_relaxed)) {
        gCalls.fetch_add(1, std::memory_order_relaxed);
        gBytes.fetch_add(bytes, std::memory_order_relaxed);
    }
}

void *
allocate(std::size_t bytes)
{
    tally(bytes);
    return std::malloc(bytes == 0 ? 1 : bytes);
}

void *
allocateAligned(std::size_t bytes, std::align_val_t align)
{
    tally(bytes);
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = ((bytes == 0 ? 1 : bytes) + a - 1) / a * a;
    return std::aligned_alloc(a, rounded);
}

} // namespace

namespace perfbench {

bool
allocCountingAvailable()
{
    return true;
}

void
setAllocCounting(bool on)
{
    gCounting.store(on, std::memory_order_relaxed);
}

AllocTally
allocTally()
{
    return {gCalls.load(std::memory_order_relaxed),
            gBytes.load(std::memory_order_relaxed)};
}

} // namespace perfbench

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
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return allocate(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return allocate(bytes);
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
operator new(std::size_t bytes, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return allocateAligned(bytes, align);
}

void *
operator new[](std::size_t bytes, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return allocateAligned(bytes, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t,
                     const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept
{
    std::free(p);
}
