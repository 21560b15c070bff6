/**
 * @file
 * The shared harness of the fault and serving benches (bench_fault_sweep,
 * bench_fault_campaign, bench_degradation, bench_serving,
 * bench_serving_faults). Each is a scenario table over four pieces:
 *
 *   Flags           the one argv parser, checking every value;
 *   meanOverTrials  the Monte Carlo trial loop and its fault seeds;
 *   tenantMix       the hmult_chain / ew_chain serving tenants and the
 *                   service-time calibration that sizes them;
 *   Table           the row spec: each column's JSON key and, when it
 *                   is shown, its stdout header and cell format.
 */

#ifndef ANAHEIM_BENCH_SCENARIO_H
#define ANAHEIM_BENCH_SCENARIO_H

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "anaheim/framework.h"
#include "bench_util.h"
#include "common/logging.h"
#include "trace/builders.h"

namespace anaheim::bench {

/**
 * Splits argv into `--smoke` and `--name=value` flags, skipping the
 * JsonScope path flags (--json/--trace/--metrics/--prom <path>). A
 * bench applies its smoke presets first and then reads its flags, so
 * an explicit flag wins over `--smoke` whatever their order:
 *
 *   bench::Flags flags("bench_fault_campaign", argc, argv);
 *   if ((opts.smoke = flags.smoke()))
 *       opts.trials = 2;
 *   flags.count("--trials", opts.trials);
 *   flags.done();
 *
 * A malformed value, a zero count, a count above its bound or an
 * unknown flag exits 2 with a message that names the flag.
 */
class Flags
{
  public:
    Flags(std::string program, int argc, char **argv)
        : program_(std::move(program))
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--json" || arg == "--trace" || arg == "--metrics" ||
                arg == "--prom") {
                if (++i == argc)
                    fail(arg + " needs a path");
            } else if (arg == "--smoke") {
                smoke_ = true;
            } else {
                const size_t eq = arg.find('=');
                flags_.push_back(
                    {arg.substr(0, eq),
                     eq == std::string::npos ? "" : arg.substr(eq + 1)});
            }
        }
    }

    bool smoke() const { return smoke_; }

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
    bool smoke_ = false;
    std::vector<Flag> flags_;
};

/** One table cell: a number (counts convert exactly below 2^53) or a
 *  label such as a scenario name. Implicit, so a row is a braced list. */
struct Value {
    Value(double x) : number(x) {}
    Value(uint64_t x) : number(static_cast<double>(x)) {}
    Value(const char *text) : label(text) {}

    double number = 0.0;
    const char *label = nullptr;
};

using Row = std::vector<Value>;

/** Trial t of a Monte Carlo cell draws its faults from the base
 *  `--fault-seed` + t * kTrialSeedStride, so adding trials keeps the
 *  earlier ones. */
inline constexpr uint64_t kTrialSeedStride = 1000003;

/** One Monte Carlo cell: `cell` (the cell's coordinates), then the mean
 *  over `trials` trials of each column `trial(faultSeed)` returns. */
template <typename Trial>
Row
meanOverTrials(Row cell, size_t trials, uint64_t seed, const Trial &trial)
{
    std::vector<double> sum;
    for (size_t t = 0; t < trials; ++t) {
        const Row columns = trial(seed + t * kTrialSeedStride);
        sum.resize(columns.size(), 0.0);
        for (size_t c = 0; c < columns.size(); ++c)
            sum[c] += columns[c].number;
    }
    for (const double total : sum)
        cell.push_back(total / static_cast<double>(trials));
    return cell;
}

/** `repeats` HMULTs chained into one trace (NTT/BConv dominated): the
 *  serving benches' GPU-heavy tenant and the fault campaigns' long
 *  trace, the worst case for all-or-nothing recovery. */
inline OpSequence
hmultChain(size_t repeats)
{
    OpSequence seq = buildHMult(TraceParams{});
    const OpSequence one = seq;
    for (size_t r = 1; r < repeats; ++r)
        seq.append(one);
    seq.name = "hmult_chain";
    return seq;
}

/** PIM-heavy tenant: `pairs` element-wise HADD+PMULT pairs. Every op
 *  offloads, so the trace is ~100% PIM. */
inline OpSequence
ewChain(size_t pairs)
{
    const TraceParams params;
    OpSequence seq = buildHAdd(params);
    const OpSequence add = seq;
    const OpSequence mult = buildPMult(params);
    seq.append(mult);
    for (size_t r = 1; r < pairs; ++r) {
        seq.append(add);
        seq.append(mult);
    }
    seq.name = "ew_chain";
    return seq;
}

/** The serving benches' tenant population: an hmult_chain and an
 *  ew_chain calibrated to the same service time on one framework, so
 *  aggregate demand splits evenly across the GPU and PIM clocks. */
struct TenantMix {
    std::vector<OpSequence> traces; ///< {hmult_chain, ew_chain}
    double gpuHeavyNs = 0.0;
    double pimHeavyNs = 0.0;
    size_t pairs = 0; ///< HADD+PMULT pairs in the ew_chain
    double meanServiceNs = 0.0;
    /** Requests per second when every request runs back-to-back on
     *  the combined device: the unit of the load sweeps. */
    double serialCapacityRps = 0.0;
};

inline TenantMix
tenantMix(const AnaheimFramework &fw, size_t repeats)
{
    TenantMix mix;
    const OpSequence gpuHeavy = hmultChain(repeats);
    mix.gpuHeavyNs = fw.execute(gpuHeavy).totalNs;
    const double pairNs = fw.execute(ewChain(1)).totalNs;
    mix.pairs = std::max<size_t>(
        1, static_cast<size_t>(mix.gpuHeavyNs / pairNs + 0.5));
    const OpSequence pimHeavy = ewChain(mix.pairs);
    mix.pimHeavyNs = fw.execute(pimHeavy).totalNs;
    mix.traces = {gpuHeavy, pimHeavy};
    mix.meanServiceNs = (mix.gpuHeavyNs + mix.pimHeavyNs) / 2.0;
    mix.serialCapacityRps = 1e9 / mix.meanServiceNs;
    return mix;
}

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

#endif // ANAHEIM_BENCH_SCENARIO_H
