/**
 * @file
 * Shared pieces of the repository benchmark: run options, the report a
 * workload fills, host-clock helpers, order statistics, result digests
 * and the allocation tally.
 *
 * A workload run has two shapes. The end-to-end shape (perfbench) builds
 * its inputs, then times operations in a closed loop for `--seconds`,
 * checking every output and re-timing the build between operations
 * (SetupTimer). The traced shape
 * (perfbench_traced --traced) repeats the loop with host-span tracing
 * on, then calls each layer's public entry points on the same kind of
 * inputs, wrapping every call in a `perfbench/...` span, and writes the
 * Chrome trace.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    /** Per-layer run: tracing on, layer probes, Chrome trace export. */
    bool traced = false;
    std::string traceOut;
    /** Short run for the self-test: fewer set-ups and probe repeats. */
    bool quick = false;
};

/** What one workload run measured. */
struct Report {
    /** Operations attempted / failed (AnaheimError or a failed output
     *  check; an operation fails at most once). */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** First few failure messages, for the human-readable log. */
    std::vector<std::string> failures;
    /** End-to-end metrics, host clock. */
    std::map<std::string, double> e2e;
    /** Deterministic model outputs and counts; a traced run must
     *  reproduce the end-to-end run's values exactly. */
    std::map<std::string, double> counts;
    /** Per-layer metrics (traced runs). */
    std::map<std::string, double> layers;
    /** Self-description: seed, pool size, kernel backend, ... */
    std::map<std::string, std::string> meta;

    /** Count one failed operation with its reason. */
    void fail(const std::string &why);
};

/** Seconds on the steady host clock since an arbitrary epoch. */
double nowSeconds();

/** Linear-interpolated percentile (p in [0, 100]) of a sample. */
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double> &values);

/** Wall time of one call, in seconds. */
template <class Fn>
double
timeIt(Fn &&fn)
{
    const double start = nowSeconds();
    fn();
    return nowSeconds() - start;
}

/** Keep a computed value alive so the call producing it is timed. */
template <class T>
void
keep(const T &value)
{
    asm volatile("" : : "r"(&value) : "memory");
}

/**
 * Closed loop with one client: call `op` until `seconds` of wall time
 * have passed, and at least `minOps` times. `op` times its own
 * operation and checks the outputs outside that timing.
 */
template <class Op>
void
closedLoop(double seconds, size_t minOps, Op &&op)
{
    const double start = nowSeconds();
    for (size_t done = 0; done < minOps || nowSeconds() - start < seconds;
         ++done)
        op();
}

/** Median wall time (seconds) of `reps` calls. */
template <class Fn>
double
medianTime(size_t reps, Fn &&fn)
{
    std::vector<double> times;
    for (size_t i = 0; i < reps; ++i)
        times.push_back(timeIt(fn));
    return median(std::move(times));
}

/**
 * The end-to-end metrics: op_ms_p50 and op_ms_mean (the base of
 * trace_overhead_frac) from per-operation host seconds, and
 * throughput_per_s, the median of `workRates`: work units (requests,
 * kernels, ...) per host second of each operation, or of each pass
 * where the operations differ in size.
 */
void reportOps(Report &report, const std::vector<double> &opSeconds,
               const std::vector<double> &workRates);

/** Empty the library's process-wide caches (the shared NTT tables), so
 *  every timed set-up starts cold. */
void clearLibraryCaches();

/**
 * A workload's state and the timing of its set-up. The state is built
 * once up front; between operations it is rebuilt in place (release,
 * cold library caches, build from the same seed) for as long as set-up
 * has used less than a tenth of the operation time. So setup_s, the
 * median build time, samples the whole run the way the operation
 * metrics do, memory holds one state at a time, and the digest checks
 * also cover set-up determinism. Traced and quick runs build once.
 */
template <class State, class Arg>
class SetupTimer
{
  public:
    SetupTimer(const Options &opts, const Arg &arg)
        : arg_(arg), once_(opts.traced || opts.quick)
    {
        build();
    }

    State &state() { return *state_; }

    /** Account one operation's host time; may rebuild the state. */
    void
    afterOperation(double opSeconds)
    {
        opSeconds_ += opSeconds;
        while (!once_ && buildSeconds_ < kShare * opSeconds_)
            build();
    }

    /** At least kMinBuilds builds, then setup_s into the report. */
    void
    report(Report &report)
    {
        while (!once_ && times_.size() < kMinBuilds)
            build();
        report.e2e["setup_s"] = median(times_);
    }

  private:
    static constexpr double kShare = 0.1;
    static constexpr size_t kMinBuilds = 3;

    void
    build()
    {
        state_.reset();
        clearLibraryCaches();
        const double t =
            timeIt([&] { state_ = std::make_unique<State>(arg_); });
        times_.push_back(t);
        buildSeconds_ += t;
    }

    Arg arg_;
    bool once_;
    std::unique_ptr<State> state_;
    std::vector<double> times_;
    double buildSeconds_ = 0.0;
    double opSeconds_ = 0.0;
};

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** FNV-1a over 64-bit words, for bitwise result digests. */
class Digest
{
  public:
    void add(uint64_t word);
    void add(double value);
    void add(const std::string &text);
    template <class Range>
    void
    addWords(const Range &words)
    {
        for (const uint64_t w : words)
            add(w);
    }
    uint64_t value() const { return state_; }

  private:
    uint64_t state_ = 0xcbf29ce484222325ULL;
};

/** Independent per-role seed (messages, keys, arrivals, ...) derived
 *  from the run's `--seed` (splitmix64 finalizer). */
uint64_t subSeed(uint64_t seed, uint64_t role);

/** Deterministic job order: Fisher-Yates driven by the run's seed. */
std::vector<size_t> shuffledOrder(size_t count, uint64_t seed);

/** The low 48 bits of a digest, exact as a double, so digests travel
 *  through the JSON report and compare across processes. */
inline double
digestValue(uint64_t digest)
{
    return static_cast<double>(digest & ((uint64_t{1} << 48) - 1));
}

/** Sum of the durations (ms) and count of every recorded host span
 *  with the given name, across all threads. */
struct SpanTotal {
    double ms = 0.0;
    uint64_t count = 0;
};
SpanTotal spanTotal(const char *name);

/** operator new calls and bytes since process start. Counted only in
 *  perfbench_traced, and only while counting is switched on; in the
 *  stock binary allocCountingAvailable() is false and the tally 0. */
struct AllocTally {
    uint64_t calls = 0;
    uint64_t bytes = 0;
};
bool allocCountingAvailable();
void setAllocCounting(bool on);
AllocTally allocTally();

/** Workload entry points (one process runs one workload). Traced, the
 *  simulator workloads also probe their own layers at full size. */
void runCkksMix(const Options &opts, Report &report);
void runCkksBoot(const Options &opts, Report &report);
void runSimPaper(const Options &opts, Report &report);
void runServeChaos(const Options &opts, Report &report);

/** Layer probes for the layers a traced workload does not exercise
 *  itself, so every traced run reports every per-layer metric. The
 *  functional-library probe has one size; the simulator and serving
 *  probes run a reduced job list / stream count (see README.md). */
void probeCkksLayers(const Options &opts, Report &report);
void probeSimLayers(const Options &opts, Report &report);
void probeServeLayers(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
