/**
 * @file
 * Shared helpers for the figure-regeneration benches: table printing and
 * machine-readable JSON output. Every bench prints the same rows/series
 * the paper reports, with the paper's published values alongside where
 * available so shape fidelity is auditable (EXPERIMENTS.md records the
 * comparison), and accepts `--json <path>` to additionally emit its key
 * metrics as a JSON document so the perf trajectory stays comparable
 * across PRs (e.g. BENCH_ntt.json from bench_ntt_kernels).
 *
 * Every bench also accepts, for free via JsonScope:
 *   --trace <path>    enable host-span tracing for the whole run and
 *                     write a Chrome trace-event / Perfetto JSON file
 *                     merging host spans with every simulated timeline
 *   --metrics <path>  dump the global metrics registry as JSON on exit
 *   --prom <path>     dump the metrics registry plus every recorded
 *                     time series as Prometheus text exposition
 * and each --json document opens with a self-describing header block
 * (schema version, git SHA, build type, thread count).
 */

#ifndef ANAHEIM_BENCH_UTIL_H
#define ANAHEIM_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace anaheim::bench {

inline void
header(const std::string &title)
{
    std::printf("\n==================================================="
                "===========================\n");
    std::printf("%s\n", title.c_str());
    std::printf("====================================================="
                "=========================\n");
}

inline void
note(const std::string &text)
{
    std::printf("  %s\n", text.c_str());
}

/** Path following `--<flag> <path>` in argv, or "" when absent. */
inline std::string
pathFromArgs(int argc, char **argv, const std::string &flag)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (argv[i] == flag)
            return argv[i + 1];
    }
    return "";
}

/** Path following a `--json` flag in argv, or "" when absent. */
inline std::string
jsonPathFromArgs(int argc, char **argv)
{
    return pathFromArgs(argc, argv, "--json");
}

/**
 * Tiny structured-result collector: top-level metrics plus an optional
 * array of row objects, serialized as one JSON document. Values are
 * either numbers or strings; insertion order is preserved so diffs of
 * successive runs stay readable.
 *
 *   JsonReport report("ntt_kernels");
 *   report.metric("machine_threads", 4);
 *   report.beginRow();
 *   report.rowMetric("n", 4096);
 *   report.rowMetric("speedup", 3.1);
 *   report.write(path); // no-op when path is empty
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string benchName)
        : benchName_(std::move(benchName))
    {
    }

    void
    metric(const std::string &key, double value)
    {
        metrics_.emplace_back(key, obs::formatDouble(value));
    }

    void
    metric(const std::string &key, const std::string &value)
    {
        metrics_.emplace_back(key, encodeString(value));
    }

    /** Start a new entry in the "rows" array; subsequent rowMetric()
     *  calls populate it. */
    void beginRow() { rows_.emplace_back(); }

    void
    rowMetric(const std::string &key, double value)
    {
        rows_.back().emplace_back(key, obs::formatDouble(value));
    }

    void
    rowMetric(const std::string &key, const std::string &value)
    {
        rows_.back().emplace_back(key, encodeString(value));
    }

    /** Serialize to `path`; returns false (silently) for an empty path,
     *  prints a warning and returns false when the file can't open. */
    bool
    write(const std::string &path) const
    {
        if (path.empty())
            return false;
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "bench: cannot write JSON to %s\n",
                         path.c_str());
            return false;
        }
        std::fprintf(f, "{\n  \"bench\": %s",
                     encodeString(benchName_).c_str());
        // Self-describing header: every bench JSON states which commit,
        // build type, and thread count produced it.
        for (const auto &[key, value] : obs::exportHeader()) {
            std::fprintf(f, ",\n  %s: %s", encodeString(key).c_str(),
                         encodeString(value).c_str());
        }
        for (const auto &[key, encoded] : metrics_) {
            std::fprintf(f, ",\n  %s: %s", encodeString(key).c_str(),
                         encoded.c_str());
        }
        if (!rows_.empty()) {
            std::fprintf(f, ",\n  \"rows\": [");
            for (size_t r = 0; r < rows_.size(); ++r) {
                std::fprintf(f, "%s\n    {", r == 0 ? "" : ",");
                for (size_t k = 0; k < rows_[r].size(); ++k) {
                    std::fprintf(f, "%s%s: %s", k == 0 ? "" : ", ",
                                 encodeString(rows_[r][k].first).c_str(),
                                 rows_[r][k].second.c_str());
                }
                std::fprintf(f, "}");
            }
            std::fprintf(f, "\n  ]");
        }
        std::fprintf(f, "\n}\n");
        std::fclose(f);
        std::printf("  JSON written to %s\n", path.c_str());
        return true;
    }

  private:
    static std::string
    encodeString(const std::string &value)
    {
        return "\"" + obs::jsonEscape(value) + "\"";
    }

    std::string benchName_;
    std::vector<std::pair<std::string, std::string>> metrics_;
    std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/**
 * One-line `--json`/`--trace`/`--metrics` support for a bench main:
 * declares a JsonReport, times the whole run, enables host-span tracing
 * for the scope's lifetime when `--trace <path>` is given, and on
 * destruction appends `total_ms`, writes the JSON document (`--json
 * <path>`), the Chrome trace (`--trace <path>`), and the metrics dump
 * (`--metrics <path>`). All three are no-ops without their flag.
 *
 *   int main(int argc, char **argv) {
 *       bench::JsonScope json("fig1_lintrans", argc, argv);
 *       ...
 *       json.report().metric("speedup", s); // optional extras
 *   }
 */
class JsonScope
{
  public:
    JsonScope(std::string benchName, int argc, char **argv)
        : report_(std::move(benchName)),
          path_(jsonPathFromArgs(argc, argv)),
          tracePath_(pathFromArgs(argc, argv, "--trace")),
          metricsPath_(pathFromArgs(argc, argv, "--metrics")),
          promPath_(pathFromArgs(argc, argv, "--prom")),
          start_(std::chrono::steady_clock::now())
    {
        if (!tracePath_.empty())
            obs::setTracingEnabled(true);
    }

    ~JsonScope()
    {
        if (!tracePath_.empty()) {
            if (obs::writeChromeTrace(tracePath_))
                std::printf("  trace written to %s\n", tracePath_.c_str());
        }
        if (!metricsPath_.empty()) {
            if (obs::writeMetrics(metricsPath_))
                std::printf("  metrics written to %s\n",
                            metricsPath_.c_str());
        }
        if (!promPath_.empty()) {
            if (obs::writePrometheus(promPath_))
                std::printf("  prometheus text written to %s\n",
                            promPath_.c_str());
        }
        if (path_.empty())
            return;
        const double totalMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start_)
                .count();
        report_.metric("total_ms", totalMs);
        report_.write(path_);
    }

    JsonScope(const JsonScope &) = delete;
    JsonScope &operator=(const JsonScope &) = delete;

    JsonReport &report() { return report_; }

  private:
    JsonReport report_;
    std::string path_;
    std::string tracePath_;
    std::string metricsPath_;
    std::string promPath_;
    std::chrono::steady_clock::time_point start_;
};

/** Record the load-bearing knobs of a resolved AnaheimConfig into a
 *  report (one `config.<key>` metric each), so result JSON states the
 *  architecture point that produced it. */
inline void
reportConfig(JsonReport &report, const AnaheimConfig &config)
{
    for (const auto &[key, value] : obs::configSummary(config))
        report.metric("config." + key, value);
}

} // namespace anaheim::bench

#endif // ANAHEIM_BENCH_UTIL_H
