// Run-report analyzer: turns the JSON reports emitted by the benchmarks
// (--report=...) into human-readable summaries -- per-run peak-attribution
// tables from the memory ledger, planner predicted-vs-actual audits, the
// top-N stages by time, one table of every run's driver metrics,
// and an A-vs-B diff between two reports. Every bench driver writes the one
// RunReport shape (coupled/report.h), so there is one path for each.
//
// The analysis functions are a library (exercised by the golden-output
// tests); the cs-report binary is a thin CLI wrapper around them. All
// output is built with fixed-format snprintf so the text is stable across
// platforms and suitable for golden comparison.
#pragma once

#include <string>

#include "common/json.h"

namespace cs::tools {

struct ReportOptions {
  /// How many stages (by seconds, descending) to print per run.
  std::size_t top_stages = 8;
};

/// Read and parse a run-report JSON file ({"binary":..., "runs":[...]}).
/// Throws std::runtime_error with a one-line reason on unreadable or
/// malformed input.
json::Value load_report(const std::string& path);

/// Full single-report analysis: per-run summary, peak-attribution table,
/// planner audit, top stages, plus a cross-run planner audit table and,
/// when runs carry "metrics", the metrics table.
std::string analyze_report(const json::Value& report,
                           const ReportOptions& opts = {});

/// A-vs-B comparison between two reports. Runs are matched by
/// (label, config_desc); matched runs compare time and peak, plus a B/A
/// row per metric both carry; unmatched runs on either side are listed.
std::string diff_reports(const json::Value& a, const json::Value& b,
                         const ReportOptions& opts = {});

}  // namespace cs::tools
