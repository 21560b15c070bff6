/**
 * @file
 * perfbench / perfbench_traced entry point.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s>
 *   perfbench_traced --workload <name> --seed <n> --seconds <s> --traced
 *                    --trace-out <path>
 *
 * Workloads: ckks-mix, ckks-boot, sim-paper, serve-chaos. `--quick`
 * shortens set-up repeats and probes for the self-test. The last line
 * of standard output is one JSON object with the run's report; run.py
 * turns it into the benchmark's result line.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "common/parallel.h"
#include "common/status.h"
#include "math/kernels.h"
#include "obs/export.h"
#include "obs/trace.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<ckks-mix|ckks-boot|sim-paper|serve-chaos> --seed <n> "
                 "--seconds <s> [--traced --trace-out <path>] [--quick]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--workload" && hasValue) {
            opts.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            opts.seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--seconds" && hasValue) {
            opts.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace-out" && hasValue) {
            opts.traceOut = argv[++i];
        } else if (arg == "--traced") {
            opts.traced = true;
        } else if (arg == "--quick") {
            opts.quick = true;
        } else {
            usage(("unknown or incomplete argument " + arg).c_str());
        }
    }
    if (opts.workload.empty())
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    if (opts.traced && opts.traceOut.empty())
        usage("--traced needs --trace-out");
    if (opts.traced && !allocCountingAvailable())
        usage("--traced needs the perfbench_traced binary");
    return opts;
}

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

template <class Map, class Encode>
std::string
object(const Map &map, Encode encode)
{
    std::string out = "{";
    for (const auto &[key, value] : map) {
        if (out.size() > 1)
            out += ", ";
        out += quoted(key) + ": " + encode(value);
    }
    return out + "}";
}

void
printReport(const Report &report)
{
    std::string failures = "[";
    for (const auto &why : report.failures) {
        if (failures.size() > 1)
            failures += ", ";
        failures += quoted(why);
    }
    failures += "]";
    const auto num = [](double v) { return number(v); };
    std::printf("{\"attempted\": %llu, \"failed\": %llu, \"failures\": %s, "
                "\"meta\": %s, \"e2e\": %s, \"counts\": %s, "
                "\"layers\": %s}\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                failures.c_str(), object(report.meta, quoted).c_str(),
                object(report.e2e, num).c_str(),
                object(report.counts, num).c_str(),
                object(report.layers, num).c_str());
    std::fflush(stdout);
}

int
run(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    Report report;
    report.meta["workload"] = opts.workload;
    report.meta["seed"] = std::to_string(opts.seed);
    report.meta["binary"] = opts.traced ? "perfbench_traced" : "perfbench";
    // Every workload runs on a one-thread pool: on a shared host the
    // fork-join pool turns other tenants' load into 30-50% swings between
    // runs. The functional-library probe times the default pool apart
    // (common.pool_speedup_*).
    anaheim::setParallelThreads(1);
    report.meta["pool_threads"] =
        std::to_string(anaheim::parallelThreadCount());
    report.meta["pool_default"] =
        std::to_string(anaheim::defaultThreadCount());
    report.meta["nproc"] =
        std::to_string(std::thread::hardware_concurrency());
    report.meta["kernel_backend"] = anaheim::kernels::backendName(
        anaheim::kernels::activeBackend());
    for (const auto &[key, value] : anaheim::obs::exportHeader()) {
        if (key == "build_type")
            report.meta["build_type"] = value;
    }

    if (opts.traced)
        anaheim::obs::setTracingEnabled(true);

    if (opts.workload == "ckks-mix") {
        runCkksMix(opts, report);
    } else if (opts.workload == "ckks-boot") {
        runCkksBoot(opts, report);
    } else if (opts.workload == "sim-paper") {
        runSimPaper(opts, report);
    } else if (opts.workload == "serve-chaos") {
        runServeChaos(opts, report);
    } else {
        usage(("unknown workload " + opts.workload).c_str());
    }

    if (opts.traced) {
        // Every traced run reports every per-layer metric: the layers a
        // workload does not exercise get the reduced probes.
        probeCkksLayers(opts, report);
        if (opts.workload != "sim-paper")
            probeSimLayers(opts, report);
        if (opts.workload != "serve-chaos")
            probeServeLayers(opts, report);
        anaheim::obs::setTracingEnabled(false);
        if (!anaheim::obs::writeChromeTrace(opts.traceOut))
            report.fail("cannot write the Chrome trace");
    }
    report.e2e["peak_rss_mb"] = peakRssMb();
    printReport(report);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return anaheim::runGuardedMain("perfbench",
                                   [&] { return run(argc, argv); });
}
