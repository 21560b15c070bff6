#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "bench.h"
#include "common/rng.h"
#include "math/ntt.h"
#include "obs/trace.h"

namespace perfbench {

void
Report::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 *
        static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

void
reportOps(Report &report, const std::vector<double> &opSeconds,
          const std::vector<double> &workRates)
{
    report.e2e["op_ms_p50"] = median(opSeconds) * 1e3;
    report.e2e["op_ms_mean"] = mean(opSeconds) * 1e3;
    report.e2e["throughput_per_s"] = median(workRates);
}

void
clearLibraryCaches()
{
    anaheim::NttTable::clearShared();
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Digest::add(uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        state_ ^= (word >> (8 * byte)) & 0xffu;
        state_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

void
Digest::add(const std::string &text)
{
    for (const char c : text)
        add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    add(static_cast<uint64_t>(text.size()));
}

uint64_t
subSeed(uint64_t seed, uint64_t role)
{
    uint64_t z = seed + (role + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<size_t>
shuffledOrder(size_t count, uint64_t seed)
{
    std::vector<size_t> order(count);
    std::iota(order.begin(), order.end(), size_t{0});
    anaheim::Rng rng(seed);
    for (size_t i = count; i > 1; --i)
        std::swap(order[i - 1], order[rng.uniform(i)]);
    return order;
}

SpanTotal
spanTotal(const char *name)
{
    SpanTotal total;
    for (const auto &span :
         anaheim::obs::TraceCollector::global().hostSpans()) {
        if (std::strcmp(span.name, name) == 0) {
            total.ms += span.durUs * 1e-3;
            ++total.count;
        }
    }
    return total;
}

} // namespace perfbench
