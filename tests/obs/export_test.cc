/**
 * @file
 * Exporter and attribution tests over a real simulated run: the Chrome
 * trace document carries the expected events, phases and lanes; the
 * attribution report's category totals reproduce
 * `RunResult::timeNsByCategory`; the timeline leaves execute() in
 * canonical order; metrics exports carry the self-describing header.
 * The full schema check of exported documents is
 * scripts/validate_trace.py, which ctest runs on the bench smokes'
 * --trace/--metrics files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "anaheim/framework.h"
#include "obs/export.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "trace/builders.h"

namespace anaheim::obs {
namespace {

bool
contains(const std::string &text, const std::string &needle)
{
    return text.find(needle) != std::string::npos;
}

size_t
occurrences(const std::string &text, const std::string &needle)
{
    size_t count = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++count;
    return count;
}

RunResult
smallRun(AnaheimConfig config = AnaheimConfig::a100NearBank())
{
    OpSequence seq = buildHMult(TraceParams{});
    seq.name = "hmult";
    return AnaheimFramework(config).execute(seq);
}

class ExportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        wasEnabled_ = tracingEnabled();
        setTracingEnabled(false);
        TraceCollector::global().clear();
    }

    void
    TearDown() override
    {
        setTracingEnabled(wasEnabled_);
        TraceCollector::global().clear();
    }

    bool wasEnabled_ = false;
};

TEST_F(ExportTest, ChromeTraceValidatesAndParses)
{
    setTracingEnabled(true);
    {
        OBS_SPAN("test/export");
        const RunResult result = smallRun(); // records its timeline
        ASSERT_FALSE(result.timeline.empty());
    }
    setTracingEnabled(false);

    const std::string json = chromeTraceJson();
    EXPECT_TRUE(contains(json, "\"name\": \"test/export\", \"cat\": "
                               "\"host\", \"ph\": \"X\""))
        << "host span missing";
    // Only metadata ("M") and complete ("X") events are emitted.
    const std::string phase = "\"ph\": \"";
    EXPECT_GT(occurrences(json, phase), 0u);
    EXPECT_EQ(occurrences(json, phase),
              occurrences(json, phase + "M\"") +
                  occurrences(json, phase + "X\""));
    // The simulated run contributes both execution lanes.
    EXPECT_TRUE(contains(json, "\"args\": {\"lane\": \"GPU\""))
        << "lanes missing GPU";
    EXPECT_TRUE(contains(json, "\"args\": {\"lane\": \"PIM\""))
        << "lanes missing PIM";
    // Header block rides "otherData".
    EXPECT_TRUE(contains(json, "\"otherData\": {\"schema_version\": \""));
    EXPECT_TRUE(contains(json, "\"git_sha\": \""));
}

TEST_F(ExportTest, WriteAndValidateTraceFile)
{
    setTracingEnabled(true);
    const RunResult result = smallRun(); // records its timeline
    setTracingEnabled(false);
    ASSERT_FALSE(result.timeline.empty());

    const std::string path =
        ::testing::TempDir() + "/anaheim_export_test_trace.json";
    ASSERT_TRUE(writeChromeTrace(path));
    std::ifstream file(path);
    std::ostringstream written;
    written << file.rdbuf();
    EXPECT_EQ(written.str(), chromeTraceJson());
    std::remove(path.c_str());
}

TEST_F(ExportTest, AttributionMatchesTimeNsByCategory)
{
    const RunResult result = smallRun();
    const AttributionReport report = buildAttribution(result);
    const auto totals = report.categoryTotalsNs();

    // Same keys, same totals (to rounding): the report re-derives the
    // category split from the timeline that execute() streamed into
    // timeNsByCategory.
    EXPECT_EQ(totals.size(), result.timeNsByCategory.size());
    for (const auto &[category, ns] : result.timeNsByCategory) {
        ASSERT_TRUE(totals.count(category)) << category;
        EXPECT_NEAR(totals.at(category), ns, 1e-6 * (1.0 + ns))
            << category;
    }
    EXPECT_NEAR(report.totalNs, result.totalNs,
                1e-6 * (1.0 + result.totalNs));
    EXPECT_NEAR(report.totalEnergyPj, result.energyPj,
                1e-6 * (1.0 + result.energyPj));
}

TEST_F(ExportTest, AttributionReportShape)
{
    const RunResult result = smallRun();
    const AttributionReport report = buildAttribution(result);

    // HMult on the A100 near-bank config offloads element-wise work:
    // a PIM row and at least one GPU-mode cell must be populated.
    ASSERT_TRUE(report.rows.count("PIM"));
    EXPECT_GT(report.rows.at("PIM").at("PIM").ns, 0.0);
    double gpuNs = 0.0;
    for (const auto &[category, cells] : report.rows) {
        (void)category;
        for (const auto &[mode, cell] : cells) {
            if (mode == "GPU-compute" || mode == "GPU-bandwidth")
                gpuNs += cell.ns;
        }
    }
    EXPECT_GT(gpuNs, 0.0);

    // Pinned print format: header columns and the total row. The table
    // renders through one code path for every consumer, so this is the
    // regression surface.
    std::string text;
    {
        std::FILE *f = std::tmpfile();
        ASSERT_NE(f, nullptr);
        printAttribution(result, f);
        std::rewind(f);
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    EXPECT_NE(text.find("category"), std::string::npos);
    EXPECT_NE(text.find("GPU-comp ms"), std::string::npos);
    EXPECT_NE(text.find("PIM ms"), std::string::npos);
    EXPECT_NE(text.find("total"), std::string::npos);
    EXPECT_NE(text.find("100.0%"), std::string::npos);
}

TEST_F(ExportTest, TimelineLeavesExecuteInCanonicalOrder)
{
    const RunResult result = smallRun();
    ASSERT_FALSE(result.timeline.empty());
    EXPECT_TRUE(timelineIsCanonical(result.timeline));
    for (const GanttEntry &entry : result.timeline)
        EXPECT_GE(entry.endNs, entry.startNs) << entry.phase;
}

TEST_F(ExportTest, MetricsJsonCarriesHeaderAndEntries)
{
    MetricsRegistry::global().counter("test.export.counter").add(3);
    MetricsRegistry::global().gauge("test.export.gauge").set(1.5);
    const std::string json =
        metricsJson(MetricsRegistry::global().snapshot(), "test");

    for (const char *key :
         {"schema_version", "git_sha", "build_type", "threads"})
        EXPECT_TRUE(contains(json, "\"" + std::string(key) + "\": \""))
            << key;
    const std::string entry = "{\"name\": \"test.export.counter\", "
                              "\"kind\": \"counter\", \"value\": ";
    const size_t at = json.find(entry);
    ASSERT_NE(at, std::string::npos) << json;
    EXPECT_GE(std::stod(json.substr(at + entry.size())), 3.0);
}

TEST_F(ExportTest, MetricsJsonTimeseriesSectionValidates)
{
    TimeSeries series("test.export.ts", 1000.0, 8);
    series.observe(100.0, 4.0);
    series.observe(1500.0, 8.0);
    const std::string json =
        metricsJson(MetricsRegistry::global().snapshot(), "test",
                    {series.snapshot()});

    EXPECT_EQ(occurrences(json, "\"timeseries\": ["), 1u);
    EXPECT_TRUE(contains(json, "{\"name\": \"test.export.ts\", "
                               "\"tick_ns\": 1000, "));
    // Two windows, in start order, each holding one sample.
    EXPECT_EQ(occurrences(json, "\"start_ns\": "), 2u);
    const size_t first =
        json.find("{\"start_ns\": 0, \"count\": 1, \"sum\": 4, ");
    const size_t second =
        json.find("{\"start_ns\": 1000, \"count\": 1, \"sum\": 8, ");
    ASSERT_NE(first, std::string::npos) << json;
    ASSERT_NE(second, std::string::npos) << json;
    EXPECT_LT(first, second);
}

TEST_F(ExportTest, PrometheusTextExposesFamiliesContiguously)
{
    MetricsRegistry::global().counter("test.export.prom").add(7);
    TimeSeries series("test.export.prom_ts", 1000.0, 8);
    series.observe(500.0, 2.0);
    const std::string text =
        prometheusText(MetricsRegistry::global().snapshot(),
                       {series.snapshot()});

    EXPECT_NE(text.find("# TYPE anaheim_test_export_prom counter"),
              std::string::npos);
    EXPECT_NE(text.find("anaheim_test_export_prom 7"),
              std::string::npos);
    EXPECT_NE(text.find("anaheim_series_rate{series=\"test.export."
                        "prom_ts\"}"),
              std::string::npos);
    // Exposition format: every sample of a family must sit under that
    // family's single TYPE line — a sample line naming family F after
    // a TYPE line for a different family is a format violation.
    std::istringstream lines(text);
    std::string line, family;
    for (; std::getline(lines, line);) {
        if (line.rfind("# TYPE ", 0) == 0) {
            const size_t space = line.find(' ', 7);
            family = line.substr(7, space - 7);
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        const size_t nameEnd = line.find_first_of("{ ");
        ASSERT_NE(nameEnd, std::string::npos) << line;
        const std::string name = line.substr(0, nameEnd);
        EXPECT_TRUE(name == family ||
                    name.rfind(family + "_", 0) == 0)
            << "sample '" << name << "' outside its family '" << family
            << "'";
    }
}

TEST_F(ExportTest, PublishRunMetricsExposesRunTotals)
{
    const RunResult result = smallRun();
    // execute() already published; check the gauges carry this run
    // under the run.last.* alias.
    const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
    const MetricsSnapshot::Entry *total =
        snapshot.find("run.last.total_ns");
    ASSERT_NE(total, nullptr);
    EXPECT_DOUBLE_EQ(total->value, result.totalNs);
    const MetricsSnapshot::Entry *execs = snapshot.find("run.executions");
    ASSERT_NE(execs, nullptr);
    EXPECT_GE(execs->value, 1.0);
    for (const auto &[category, ns] : result.timeNsByCategory) {
        const MetricsSnapshot::Entry *entry =
            snapshot.find("run.last.time_ns." + category);
        ASSERT_NE(entry, nullptr) << category;
        EXPECT_DOUBLE_EQ(entry->value, ns) << category;
    }
}

TEST_F(ExportTest, PublishRunMetricsNamespacesGaugesByRunId)
{
    // Two interleaved runs published under distinct ids must not
    // clobber each other's gauges; run.last.* follows the later one.
    RunResult a;
    a.totalNs = 1111.0;
    RunResult b;
    b.totalNs = 2222.0;
    publishRunMetrics(a, 41u);
    publishRunMetrics(b, 42u);
    const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
    const MetricsSnapshot::Entry *ga = snapshot.find("run.41.total_ns");
    ASSERT_NE(ga, nullptr);
    EXPECT_DOUBLE_EQ(ga->value, 1111.0);
    const MetricsSnapshot::Entry *gb = snapshot.find("run.42.total_ns");
    ASSERT_NE(gb, nullptr);
    EXPECT_DOUBLE_EQ(gb->value, 2222.0);
    const MetricsSnapshot::Entry *last =
        snapshot.find("run.last.total_ns");
    ASSERT_NE(last, nullptr);
    EXPECT_DOUBLE_EQ(last->value, 2222.0);
}

TEST_F(ExportTest, ConfigSummaryNamesTheArchitecturePoint)
{
    const auto kv = configSummary(AnaheimConfig::a100NearBank());
    auto value = [&](const std::string &key) -> std::string {
        for (const auto &[k, v] : kv)
            if (k == key)
                return v;
        return "<missing>";
    };
    EXPECT_EQ(value("gpu"), "A100 80GB");
    EXPECT_EQ(value("pim_enabled"), "true");
    EXPECT_EQ(value("pim_variant"), "near-bank");
    EXPECT_EQ(value("ecc_enabled"), "true");
    // Serving runs take their own ServeConfig: the summary describes
    // only what the framework reads.
    for (const auto &[k, v] : kv)
        EXPECT_NE(k.rfind("serve_", 0), 0u) << k << " = " << v;
}

} // namespace
} // namespace anaheim::obs
