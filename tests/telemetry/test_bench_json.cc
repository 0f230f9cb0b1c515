/**
 * @file
 * Round-trip tests for the bench report's telemetry section.
 *
 * The section is new in the "act-bench-trend-v1" format, so the tests
 * pin both directions of compatibility: old reports (no telemetry key)
 * still load, and new reports survive a write→load round trip with the
 * telemetry rows intact — while compareReports keeps ignoring them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "bench/bench_json.hh"

namespace act::bench
{
namespace
{

std::string
tempPath(const char *name)
{
    const char *dir = std::getenv("TMPDIR");
    std::string base = dir != nullptr ? dir : "/tmp";
    if (!base.empty() && base.back() != '/')
        base += '/';
    return base + name;
}

TEST(BenchJsonTelemetry, RoundTripsThroughDisk)
{
    BenchReport report;
    report.build_type = "Release";
    report.results.push_back({"micro_a", 12.5, 8.0e7, 1000});
    report.wall_clock.push_back({"campaign_smoke", 450.5});
    report.telemetry.push_back({"campaign_smoke_sim_events_per_s", 6100.25});
    report.telemetry.push_back({"campaign_smoke_jobs_ok", 15.0});

    const std::string path = tempPath("act_test_bench_telemetry.json");
    ASSERT_TRUE(writeBenchReport(report, path));

    BenchReport loaded;
    ASSERT_TRUE(loadBenchReport(path, loaded));
    std::remove(path.c_str());

    ASSERT_EQ(loaded.telemetry.size(), 2u);
    EXPECT_EQ(loaded.telemetry[0].name, "campaign_smoke_sim_events_per_s");
    EXPECT_DOUBLE_EQ(loaded.telemetry[0].value, 6100.25);
    EXPECT_EQ(loaded.telemetry[1].name, "campaign_smoke_jobs_ok");
    EXPECT_DOUBLE_EQ(loaded.telemetry[1].value, 15.0);
    ASSERT_EQ(loaded.results.size(), 1u);
    EXPECT_DOUBLE_EQ(loaded.results[0].events_per_s, 8.0e7);
}

TEST(BenchJsonTelemetry, OldReportsWithoutSectionStillLoad)
{
    const std::string path = tempPath("act_test_bench_old.json");
    {
        std::ofstream out(path);
        out << R"({
  "schema": "act-bench-trend-v1",
  "build_type": "Release",
  "results": [
    {"name": "micro_a", "ns_per_op": 10, "events_per_s": 1e8,
     "iterations": 64}
  ],
  "wall_clock": []
})";
    }
    BenchReport loaded;
    ASSERT_TRUE(loadBenchReport(path, loaded));
    std::remove(path.c_str());
    EXPECT_TRUE(loaded.telemetry.empty());
    EXPECT_EQ(loaded.results.size(), 1u);
}

TEST(BenchJsonTelemetry, UnknownKeysInEntriesAreSkipped)
{
    const std::string path = tempPath("act_test_bench_future.json");
    {
        std::ofstream out(path);
        out << R"({
  "schema": "act-bench-trend-v1",
  "build_type": "Release",
  "results": [],
  "wall_clock": [],
  "telemetry": [
    {"name": "x", "value": 2.5, "unit": "events/s", "extra": [1, 2]}
  ]
})";
    }
    BenchReport loaded;
    ASSERT_TRUE(loadBenchReport(path, loaded));
    std::remove(path.c_str());
    ASSERT_EQ(loaded.telemetry.size(), 1u);
    EXPECT_EQ(loaded.telemetry[0].name, "x");
    EXPECT_DOUBLE_EQ(loaded.telemetry[0].value, 2.5);
}

TEST(BenchJsonTelemetry, DeeplyNestedUnknownKeyIsRejected)
{
    // A v1 report whose unknown key holds 100,000 nested arrays: the
    // loader must refuse it cleanly rather than recurse without bound.
    const std::string path = tempPath("act_test_bench_nested.json");
    {
        std::ofstream out(path);
        out << R"({"schema": "act-bench-trend-v1", "results": [], "x": )"
            << std::string(100000, '[') << std::string(100000, ']')
            << "}";
    }
    BenchReport loaded;
    EXPECT_FALSE(loadBenchReport(path, loaded));
    std::remove(path.c_str());
}

TEST(BenchJsonTelemetry, CompareReportsIgnoresTelemetry)
{
    BenchReport current;
    BenchReport baseline;
    current.results.push_back({"micro_a", 10.0, 1.0e8, 64});
    baseline.results.push_back({"micro_a", 10.0, 1.0e8, 64});
    // Wildly different telemetry must not create or flag entries.
    current.telemetry.push_back({"campaign_smoke_sim_events_per_s", 1.0});
    baseline.telemetry.push_back(
        {"campaign_smoke_sim_events_per_s", 1.0e9});

    const auto trend = compareReports(current, baseline, 0.3);
    ASSERT_EQ(trend.size(), 1u);
    EXPECT_EQ(trend[0].name, "micro_a");
    EXPECT_FALSE(trend[0].regression);
}

} // namespace
} // namespace act::bench
