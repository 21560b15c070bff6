/**
 * @file
 * The harness of every bench:
 *
 *   Flags      the one argv scan: the output paths, `--smoke` and
 *              `--name=value` flags, each value checked;
 *   Table      the row spec: each printed value is one column that
 *              lands on stdout and in the `--json` document's "rows";
 *   bestOfNs   the host-timing benches' one timer (best of N runs);
 *   JsonScope  the run's exports, each written when its path is given:
 *              `--json` (the rows and metrics, after a self-describing
 *              header of schema version, git SHA, build type and
 *              thread count), `--trace` (host spans merged with every
 *              simulated timeline, as Chrome trace-event JSON),
 *              `--metrics` (the metrics registry as JSON) and `--prom`
 *              (the registry and time series as Prometheus text).
 *
 * A figure bench's main is runBench(); its body prints its tables:
 *
 *   bench::Table table(report, {
 *       {"algorithm", "Algorithm", "%-10s"},
 *       {"ntt_ops", "(I)NTT ops", "%12.0f"},
 *   });
 *   table.row({"Base", 12768.0});
 */

#ifndef ANAHEIM_BENCH_UTIL_H
#define ANAHEIM_BENCH_UTIL_H

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
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

/**
 * The one argv scan. Takes the output paths (--json/--trace/--metrics/
 * --prom <path>, for JsonScope) and splits the rest into `--name` and
 * `--name=value` flags. A bench applies its smoke presets first and
 * then reads its flags, so an explicit flag wins over `--smoke`
 * whatever their order:
 *
 *   bench::Flags flags("bench_fault_campaign", argc, argv);
 *   if ((opts.smoke = flags.smoke()))
 *       opts.trials = 2;
 *   flags.count("--trials", opts.trials);
 *   bench::JsonScope json("fault_campaign", flags);
 *
 * A malformed value, a zero count, a count above its bound, a flag no
 * read asked for (`--smoke` included, when the bench has no smoke
 * mode) or a path flag without its path exits 2 with a message that
 * names the flag.
 */
class Flags
{
  public:
    /** Where the run's exports go; "" when the flag is absent. */
    struct Paths {
        std::string json;
        std::string trace;
        std::string metrics;
        std::string prom;
    };

    Flags(std::string program, int argc, char **argv)
        : program_(std::move(program))
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            std::string *path = arg == "--json"      ? &paths_.json
                                : arg == "--trace"   ? &paths_.trace
                                : arg == "--metrics" ? &paths_.metrics
                                : arg == "--prom"    ? &paths_.prom
                                                     : nullptr;
            if (path != nullptr) {
                if (++i == argc)
                    fail(arg + " needs a path");
                *path = argv[i];
                continue;
            }
            const size_t eq = arg.find('=');
            flags_.push_back(
                {arg.substr(0, eq),
                 eq == std::string::npos ? "" : arg.substr(eq + 1)});
        }
    }

    const Paths &paths() const { return paths_; }

    /** Whether `--smoke` was given. Only a bench with a smoke mode
     *  asks, so done() rejects the flag everywhere else. */
    bool
    smoke()
    {
        bool given = false;
        read("--smoke", "no value", [&](const std::string &value) {
            given = true;
            return value.empty();
        });
        return given;
    }

    /** Apply each `name=value` in argv order, so the last one wins.
     *  `parse` returns false to reject a value as not being `want`. */
    template <typename Parse>
    void
    read(const std::string &name, const std::string &want,
         const Parse &parse)
    {
        for (Flag &flag : flags_) {
            if (flag.name != name)
                continue;
            flag.read = true;
            if (!parse(flag.value))
                fail(name + " wants " + want + ", got '" + flag.value + "'");
        }
    }

    /** `name=N`: a positive count, at most `max` when one is given. */
    void
    count(const std::string &name, size_t &out, uint64_t max = UINT64_MAX)
    {
        const std::string want =
            max == UINT64_MAX ? "a positive integer"
                              : "a positive integer <= " + std::to_string(max);
        read(name, want, [&](const std::string &value) {
            uint64_t n = 0;
            const bool ok = parseUnsigned(value, n) && n > 0 && n <= max;
            out = n;
            return ok;
        });
    }

    /** `name=S`: any unsigned 64-bit seed. */
    void
    seed(const std::string &name, uint64_t &out)
    {
        read(name, "an unsigned integer", [&](const std::string &value) {
            return parseUnsigned(value, out);
        });
    }

    /** `name=X`: one finite number that replaces the swept list. */
    void
    only(const std::string &name, std::vector<double> &out)
    {
        read(name, "a finite number", [&](const std::string &value) {
            char *end = nullptr;
            out = {std::strtod(value.c_str(), &end)};
            return !value.empty() &&
                   !std::isspace(static_cast<unsigned char>(value[0])) &&
                   *end == '\0' && std::isfinite(out[0]);
        });
    }

    /** Exit 2 on a flag that no read asked for. */
    void
    done() const
    {
        for (const Flag &flag : flags_) {
            if (!flag.read)
                fail("unknown flag: " + flag.name);
        }
    }

  private:
    struct Flag {
        std::string name;
        std::string value;
        bool read = false;
    };

    /** All of `text` as an unsigned 64-bit integer: decimal, 0x hex or
     *  leading-0 octal, with no sign, blank or trailing junk. */
    static bool
    parseUnsigned(const std::string &text, uint64_t &out)
    {
        if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
            return false;
        errno = 0;
        char *end = nullptr;
        out = std::strtoull(text.c_str(), &end, 0);
        return errno != ERANGE && *end == '\0';
    }

    [[noreturn]] void
    fail(const std::string &message) const
    {
        std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
        std::exit(2);
    }

    std::string program_;
    Paths paths_;
    std::vector<Flag> flags_;
};

/**
 * Tiny structured-result collector: top-level metrics plus an optional
 * array of row objects, serialized as one JSON document. Values are
 * either numbers or strings; insertion order is preserved so diffs of
 * successive runs stay readable. Benches fill the rows through Table.
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
 * A bench run's exports: declares a JsonReport, times the whole run,
 * enables host-span tracing for the scope's lifetime when `--trace` is
 * given, and on destruction appends `total_ms` and writes the JSON
 * document, the Chrome trace, the metrics dump and the Prometheus
 * text, each only when its path flag was given.
 */
class JsonScope
{
  public:
    /** Opens once every flag is read: exits 2 on a flag in `flags`
     *  that no read asked for. */
    JsonScope(std::string benchName, const Flags &flags)
        : report_(std::move(benchName)), paths_(flags.paths()),
          start_(std::chrono::steady_clock::now())
    {
        flags.done();
        if (!paths_.trace.empty())
            obs::setTracingEnabled(true);
    }

    ~JsonScope()
    {
        if (!paths_.trace.empty()) {
            if (obs::writeChromeTrace(paths_.trace))
                std::printf("  trace written to %s\n", paths_.trace.c_str());
        }
        if (!paths_.metrics.empty()) {
            if (obs::writeMetrics(paths_.metrics))
                std::printf("  metrics written to %s\n",
                            paths_.metrics.c_str());
        }
        if (!paths_.prom.empty()) {
            if (obs::writePrometheus(paths_.prom))
                std::printf("  prometheus text written to %s\n",
                            paths_.prom.c_str());
        }
        if (paths_.json.empty())
            return;
        const double totalMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start_)
                .count();
        report_.metric("total_ms", totalMs);
        report_.write(paths_.json);
    }

    JsonScope(const JsonScope &) = delete;
    JsonScope &operator=(const JsonScope &) = delete;

    JsonReport &report() { return report_; }

  private:
    JsonReport report_;
    Flags::Paths paths_;
    std::chrono::steady_clock::time_point start_;
};

/** The main() of a bench whose only flags are the output paths: reads
 *  argv, opens the JsonScope and runs `body` on its report. A library
 *  error (AnaheimError: a bad trace, infeasible parameters) is
 *  reported as runGuardedMain does, instead of aborting. */
inline int
runBench(const std::string &name, int argc, char **argv,
         int (*body)(JsonReport &))
{
    const std::string program = "bench_" + name;
    return runGuardedMain(program.c_str(), [&] {
        Flags flags(program, argc, argv);
        JsonScope json(name, flags);
        return body(json.report());
    });
}

/** Record the load-bearing knobs of a resolved AnaheimConfig into a
 *  report (one `config.<key>` metric each), so result JSON states the
 *  architecture point that produced it. */
inline void
reportConfig(JsonReport &report, const AnaheimConfig &config)
{
    for (const auto &[key, value] : obs::configSummary(config))
        report.metric("config." + key, value);
}

/** Simulated milliseconds `result` spent in breakdown category `cat`
 *  (0 when the run has none). */
inline double
categoryMs(const RunResult &result, const std::string &cat)
{
    const auto it = result.timeNsByCategory.find(cat);
    return it == result.timeNsByCategory.end() ? 0.0 : it->second * 1e-6;
}

/** Best-of-`runs` wall time of fn(), in nanoseconds. */
template <typename Fn>
double
bestOfNs(size_t runs, Fn &&fn)
{
    double best = 1e300;
    for (size_t run = 0; run < runs; ++run) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        best = std::min(best, std::chrono::duration<double, std::nano>(
                                  std::chrono::steady_clock::now() - start)
                                  .count());
    }
    return best;
}

/** Whether `workload` overflows the device memory of `config`: both
 *  CNNs exceed the RTX 4090's 24GB (§VII-B, Table V). */
inline bool
outOfMemory(const AnaheimConfig &config, const std::string &workload)
{
    return config.dram.capacityBytes < 30e9 &&
           (workload == "ResNet20" || workload == "ResNet18-AESPA");
}

/** One table cell: a number (counts convert exactly below 2^53) or a
 *  label such as a scenario name. Implicit, so a row is a braced list.
 *  A cell with no number is no cell: its row is left out. */
struct Value {
    Value(double x) : number(x) {}
    Value(uint64_t x) : number(static_cast<double>(x)) {}
    Value(const char *text) : label(text) {}

    double number = 0.0;
    const char *label = nullptr;
};

using Row = std::vector<Value>;

/** One column of a result table: its JSON row key and, when it is
 *  shown on stdout, its header and the printf format of its cell (one
 *  `%s` conversion for labels, one floating conversion for numbers,
 *  which print value * `scale`). The header takes the cell's width and
 *  alignment. */
struct Column {
    const char *key;
    const char *head = nullptr;
    const char *fmt = nullptr;
    double scale = 1.0;
};

/** A bench's result table: prints each row on stdout and adds it to
 *  the `--json` document's "rows" array. Construction prints the
 *  header line. */
class Table
{
  public:
    Table(JsonReport &report, std::vector<Column> columns)
        : report_(report), columns_(std::move(columns)),
          totals_(columns_.size(), 0.0)
    {
        const char *sep = "";
        for (const Column &column : columns_) {
            if (column.head == nullptr)
                continue;
            const int width =
                isLabel(column) ? std::snprintf(nullptr, 0, column.fmt, "")
                                : std::snprintf(nullptr, 0, column.fmt, 0.0);
            std::printf(column.fmt[1] == '-' ? "%s%-*s" : "%s%*s", sep,
                        width, column.head);
            sep = " ";
        }
        std::printf("\n");
    }

    /** One row: a value per column, in column order. */
    void
    row(const Row &values)
    {
        ANAHEIM_ASSERT(values.size() == columns_.size(), "row has ",
                       values.size(), " values for ", columns_.size(),
                       " columns");
        report_.beginRow();
        const char *sep = "";
        for (size_t i = 0; i < values.size(); ++i) {
            const Column &column = columns_[i];
            const Value &value = values[i];
            totals_[i] += value.number;
            if (value.label != nullptr)
                report_.rowMetric(column.key, value.label);
            else
                report_.rowMetric(column.key, value.number);
            if (column.head == nullptr)
                continue;
            ANAHEIM_ASSERT(isLabel(column) == (value.label != nullptr),
                           "column ", column.key, " has the wrong type");
            std::printf("%s", sep);
            if (value.label != nullptr)
                std::printf(column.fmt, value.label);
            else
                std::printf(column.fmt, value.number * column.scale);
            sep = " ";
        }
        std::printf("\n");
    }

    /** Sum of the numeric column `key` over the rows so far. */
    double
    total(const std::string &key) const
    {
        const auto column = std::find_if(
            columns_.begin(), columns_.end(),
            [&](const Column &c) { return key == c.key; });
        ANAHEIM_ASSERT(column != columns_.end(), "no column ", key);
        return totals_[column - columns_.begin()];
    }

  private:
    static bool
    isLabel(const Column &column)
    {
        return column.fmt[std::strspn(column.fmt, "%-.0123456789")] == 's';
    }

    JsonReport &report_;
    std::vector<Column> columns_;
    std::vector<double> totals_;
};

} // namespace anaheim::bench

#endif // ANAHEIM_BENCH_UTIL_H
