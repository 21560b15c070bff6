/**
 * @file
 * Process-wide metrics registry: named counters and gauges that the
 * previously ad-hoc statistics (ResilienceStats fields, DRAM command
 * counts, GPU roofline op/byte totals, PIM datapath events) publish
 * into, giving every bench and example one snapshot/export path
 * (obs/export.h: `--metrics <path>` JSON or CSV).
 *
 * Concurrency: instrument-side updates are relaxed atomic adds — safe
 * from the limb-parallel workers and cheap enough for per-kernel-model
 * call sites. Registration (name -> instrument lookup) takes a mutex;
 * hot paths should look up once and keep the reference:
 *
 *     static obs::Counter &kernels =
 *         obs::MetricsRegistry::global().counter("gpu.kernels");
 *     kernels.add();
 *
 * Instruments live for the process lifetime; references never dangle.
 */

#ifndef ANAHEIM_OBS_METRICS_H
#define ANAHEIM_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace anaheim::obs {

/** Monotonic event count. */
class Counter
{
  public:
    void add(uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    void add(double delta)
    {
        double current = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(current, current + delta,
                                             std::memory_order_relaxed)) {
        }
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Point-in-time copy of every registered instrument. */
struct MetricsSnapshot {
    struct Entry {
        std::string name;
        std::string kind; ///< "counter" or "gauge"
        double value = 0.0;
        /** A counter's exact value. */
        uint64_t count = 0;
    };
    /** Sorted by name for stable exports and diffs. */
    std::vector<Entry> entries;

    /** Entry by exact name, or nullptr. */
    const Entry *find(const std::string &name) const;
};

class MetricsRegistry
{
  public:
    static MetricsRegistry &global();

    /** Find-or-create by name. Raises AnaheimError (InvalidArgument)
     *  when `name` is already registered as a different kind. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    MetricsSnapshot snapshot() const;

    /** Number of registered instruments. */
    size_t size() const;

    /** Zero every instrument (instruments stay registered; references
     *  held by call sites remain valid). */
    void resetAll();

  private:
    MetricsRegistry() = default;

    struct Instrument;
    Instrument &lookup(const std::string &name, const char *kind);

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Instrument>> instruments_;
};

} // namespace anaheim::obs

#endif // ANAHEIM_OBS_METRICS_H
