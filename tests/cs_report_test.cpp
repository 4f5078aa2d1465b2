// Golden-output tests for the cs-report run-report analyzer: the analysis
// of a checked-in sample report must match the checked-in golden text
// byte-for-byte (the analyzer uses fixed snprintf formats precisely so
// this comparison is stable across platforms).
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "tools/cs_report.h"

namespace cs {
namespace {

std::string data_path(const char* name) {
  return std::string(CS_TEST_DATA_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) ADD_FAILURE() << "cannot open " << path;
  std::string text;
  if (f != nullptr) {
    char buf[1 << 14];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
      text.append(buf, got);
    std::fclose(f);
  }
  return text;
}

TEST(CsReport, AnalysisMatchesGolden) {
  const json::Value report =
      tools::load_report(data_path("sample_report.json"));
  const std::string out = tools::analyze_report(report);
  const std::string golden = slurp(data_path("sample_report.golden.txt"));
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(out, golden)
      << "analyzer output drifted from tests/data/sample_report.golden.txt; "
         "if the change is intentional, regenerate the golden file with "
         "build/src/tools/cs-report tests/data/sample_report.json";
}

TEST(CsReport, AnalysisNamesPeakOwnersAndPlannerVerdicts) {
  const json::Value report =
      tools::load_report(data_path("sample_report.json"));
  const std::string out = tools::analyze_report(report);
  // The failed budget run attributes its peak to the multifrontal fronts.
  EXPECT_NE(out.find("mf.front"), std::string::npos);
  EXPECT_NE(out.find("budget-exempt"), std::string::npos);
  EXPECT_NE(out.find("FAILED"), std::string::npos);
  EXPECT_NE(out.find("planner audit"), std::string::npos);
  EXPECT_NE(out.find("over"), std::string::npos);   // 1.20 ratio
  EXPECT_NE(out.find("under"), std::string::npos);  // 0.90 ratio
}

TEST(CsReport, DiffAgainstItselfShowsUnitRatios) {
  const json::Value report =
      tools::load_report(data_path("sample_report.json"));
  const std::string out = tools::diff_reports(report, report);
  EXPECT_NE(out.find("multi-solve-compressed / smoke"), std::string::npos);
  EXPECT_NE(out.find("1.00"), std::string::npos);
  EXPECT_EQ(out.find("only in"), std::string::npos);
}

TEST(CsReport, DiffListsUnmatchedRuns) {
  const json::Value report =
      tools::load_report(data_path("sample_report.json"));
  json::Value trimmed = report;
  trimmed.object[1].second.array.pop_back();  // drop the second run
  const std::string out = tools::diff_reports(report, trimmed);
  EXPECT_NE(out.find("only in A: multi-factorization / smoke"),
            std::string::npos);
}

TEST(CsReport, ToleratesPrePlannerReportsWithDashMarkers) {
  // Reports written before PR 7 carry neither peak_by_tag nor the planner
  // audit fields; the analyzer must not throw and must print explicit "-"
  // markers instead of fabricated zeros.
  const json::Value report =
      tools::load_report(data_path("stripped_report.json"));
  std::string out;
  ASSERT_NO_THROW(out = tools::analyze_report(report));
  EXPECT_NE(out.find("peak attribution: -"), std::string::npos);
  EXPECT_NE(out.find("planner    : -"), std::string::npos);
  // The cross-run audit row shows dashes in the ratio and verdict
  // columns, and never invents a 0.00 ratio or an n/a verdict.
  EXPECT_NE(out.find("      -  -"), std::string::npos);
  EXPECT_EQ(out.find(" 0.00  "), std::string::npos);
  EXPECT_EQ(out.find("n/a"), std::string::npos);
}

json::Value parse_report(const std::string& text) {
  json::Value doc;
  std::string err;
  EXPECT_TRUE(json::parse(text, &doc, &err)) << err;
  return doc;
}

TEST(CsReport, SolveRunShowsMeasuredErrorAndPeakWithoutPlannerVerdict) {
  // A bench_solve nrhs=N run: the driver stores its measured column error
  // and the solve's tracked peak in the stats; the planner predicts no
  // solve, so its fields stay 0 ("unknown").
  const json::Value report = parse_report(
      "{\"binary\":\"bench_solve\",\"runs\":["
      "{\"label\":\"nrhs=16\",\"config_desc\":\"multi-solve-compressed\","
      "\"stats\":{\"success\":true,\"relative_error\":2.5e-10,"
      "\"peak_bytes\":9437184,\"planner_predicted_bytes\":0,"
      "\"planner_misprediction\":0},"
      "\"metrics\":{\"solves_per_sec\":120.5,"
      "\"max_column_error\":2.5e-10}}]}");
  std::string out;
  ASSERT_NO_THROW(out = tools::analyze_report(report));
  EXPECT_NE(out.find("rel error  : 2.500e-10"), std::string::npos) << out;
  EXPECT_NE(out.find("peak       : 9.00 MiB"), std::string::npos) << out;
  // The audit row prints dashes for the unknown ratio and verdict, not a
  // 0.00 ratio with an n/a verdict.
  const std::size_t audit = out.find("== planner audit");
  ASSERT_NE(audit, std::string::npos);
  const std::size_t row = out.find("nrhs=16 / multi-solve-compressed", audit);
  ASSERT_NE(row, std::string::npos) << out;
  const std::string line = out.substr(row, out.find('\n', row) - row);
  EXPECT_NE(line.find("9.00 MiB       -  -"), std::string::npos) << line;
  EXPECT_EQ(out.find("0.00 B"), std::string::npos) << out;
  EXPECT_EQ(out.find("n/a"), std::string::npos) << out;
}

/// A bench_sweep-style run report: one metrics run per sweep mode and one
/// per recycled frequency.
json::Value sweep_report(const std::string& recycled_spf,
                         const std::string& factorizations) {
  return parse_report(
      "{\"binary\":\"bench_sweep\",\"runs\":["
      "{\"label\":\"naive\",\"config_desc\":\"summary\",\"success\":true,"
      "\"metrics\":{\"frequencies\":2,\"seconds_per_frequency\":2.0,"
      "\"factorizations\":2,\"lagged_solves\":0}},"
      "{\"label\":\"recycled\",\"config_desc\":\"summary\",\"success\":true,"
      "\"metrics\":{\"frequencies\":2,\"seconds_per_frequency\":" +
      recycled_spf + ",\"factorizations\":" + factorizations +
      ",\"lagged_solves\":1}},"
      "{\"label\":\"recycled\",\"config_desc\":\"omega=1.1\","
      "\"success\":true,\"detail\":\"no_factors\",\"metrics\":{"
      "\"omega\":1.1,\"seconds\":1.4,\"lagged\":0,"
      "\"relative_error\":1.4e-08}},"
      "{\"label\":\"recycled\",\"config_desc\":\"omega=1.125\","
      "\"success\":true,\"metrics\":{\"omega\":1.125,\"seconds\":0.2,"
      "\"lagged\":1,\"relative_error\":1.8e-08}}]}");
}

TEST(CsReport, FreqSweepAnalysisShowsModesAndServiceTiers) {
  const json::Value report = sweep_report("0.8", "1");
  std::string out;
  ASSERT_NO_THROW(out = tools::analyze_report(report));
  EXPECT_NE(out.find("== metrics =="), std::string::npos);
  // Mode runs and per-frequency runs measure different things, so each
  // group gets its own header row.
  EXPECT_NE(out.find("seconds_per_frequency"), std::string::npos);
  EXPECT_NE(out.find("relative_error"), std::string::npos);
  EXPECT_NE(out.find("naive / summary"), std::string::npos);
  EXPECT_NE(out.find("recycled / omega=1.125"), std::string::npos);
  EXPECT_NE(out.find("1.4e-08"), std::string::npos);
  // The fallback reason rides on the frequency's row as its detail.
  EXPECT_NE(out.find("no_factors"), std::string::npos);
  EXPECT_NE(out.find("status     : success"), std::string::npos);
  EXPECT_EQ(out.find("(no stats object)"), std::string::npos);
  EXPECT_EQ(out.find("FAILED"), std::string::npos);
}

TEST(CsReport, FreqSweepDiffComparesModesAcrossReports) {
  const json::Value a = sweep_report("0.8", "1");
  json::Value b = sweep_report("1.6", "2");
  b.object[1].second.array.pop_back();  // B lacks the last frequency
  std::string out;
  ASSERT_NO_THROW(out = tools::diff_reports(a, b));
  // The recycled s/freq doubled from A to B: a B/A of 2.00 on its row.
  EXPECT_NE(out.find("    seconds_per_frequency                   0.8"
                     "        1.6   2.00"),
            std::string::npos);
  // A zero in A has no ratio.
  EXPECT_NE(out.find("    lagged_solves                             0"
                     "          0      -"),
            std::string::npos);
  EXPECT_NE(out.find("only in A: recycled / omega=1.125"), std::string::npos);
}

TEST(CsReport, ServeAnalysisShowsModesAndCacheCounters) {
  const json::Value report = parse_report(
      "{\"binary\":\"bench_serve\",\"runs\":["
      "{\"label\":\"uncoalesced\",\"config_desc\":\"multi-solve\","
      "\"config\":{\"strategy\":\"multi-solve\"},\"success\":true,"
      "\"metrics\":{\"requests\":64,\"requests_per_second\":172.7,"
      "\"p99_ms\":147.43,\"cache_hits\":64,\"factorizations\":1}},"
      "{\"label\":\"coalesced\",\"config_desc\":\"multi-solve\","
      "\"config\":{\"strategy\":\"multi-solve\"},\"success\":true,"
      "\"metrics\":{\"requests\":64,\"requests_per_second\":766.9,"
      "\"p99_ms\":32.07,\"cache_hits\":64,\"factorizations\":1}}]}");
  std::string out;
  ASSERT_NO_THROW(out = tools::analyze_report(report));
  EXPECT_NE(out.find("uncoalesced / multi-solve"), std::string::npos);
  EXPECT_NE(out.find("cache_hits"), std::string::npos);
  EXPECT_NE(out.find("766.9"), std::string::npos);  // coalesced req/s
  EXPECT_NE(out.find("32.07"), std::string::npos);  // coalesced p99
  // Both modes share one metric set, hence one header row.
  EXPECT_EQ(out.find("requests_per_second"),
            out.rfind("requests_per_second"));
  EXPECT_EQ(out.find("FAILED"), std::string::npos);
}

TEST(CsReport, ServeAnalysisFlagsFailedOrMismatchedRequests) {
  // bench_serve marks a pass failed when any request failed or any reply
  // mismatched; the analyzer shows the run's own success flag.
  const json::Value report = parse_report(
      "{\"binary\":\"bench_serve\",\"runs\":["
      "{\"label\":\"coalesced\",\"config_desc\":\"multi-solve\","
      "\"success\":false,\"detail\":\"2 bitwise mismatches\","
      "\"metrics\":{\"requests\":8,\"failures\":0,\"mismatches\":2}}]}");
  std::string out;
  ASSERT_NO_THROW(out = tools::analyze_report(report));
  EXPECT_NE(out.find("status     : FAILED (2 bitwise mismatches)"),
            std::string::npos);
  EXPECT_NE(out.find(" FAILED "), std::string::npos);  // the table row
  EXPECT_NE(out.find("          2  2 bitwise mismatches"),
            std::string::npos);
}

TEST(CsReport, LoadRejectsRetiredFlatShapes) {
  // The flat bench_solve / bench_sweep / bench_serve shapes are gone:
  // every driver writes the one "runs" shape.
  const std::string path =
      ::testing::TempDir() + "/cs_report_test.flat.json";
  for (const char* text :
       {"{\"binary\":\"bench_solve\",\"sweep\":[{\"nrhs\":1,\"ok\":true}]}",
        "{\"binary\":\"bench_sweep\",\"freq_sweep\":[{\"mode\":\"naive\"}]}",
        "{\"binary\":\"bench_serve\",\"serve\":[{\"mode\":\"coalesced\"}]}"}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
    try {
      tools::load_report(path);
      ADD_FAILURE() << "accepted a flat report: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("lacks a \"runs\" array"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(CsReport, LoadRejectsMissingAndMalformedFiles) {
  EXPECT_THROW(tools::load_report(data_path("does_not_exist.json")),
               std::runtime_error);
  EXPECT_THROW(tools::load_report(data_path("sample_report.golden.txt")),
               std::runtime_error);
}

}  // namespace
}  // namespace cs
