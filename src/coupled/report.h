// Machine-readable run reports: SolveStats -> JSON.
//
// Every bench driver accepts --report=out.json and funnels its runs through
// a RunReport, so the numbers behind each printed table (per-phase and
// per-stage seconds, tracked peak/Schur bytes, compression ratios, counter
// summaries, and each driver's own measurements) are available to plotting
// and trend tooling without scraping stdout. The schema is one top-level
// object, and cs-report renders and diffs every report written in it:
//
//   { "binary": "...",
//     "runs": [ { "label": ..., "config_desc": ...,
//                 "config": {...},          // when the run has a Config
//                 "stats": {...},           // when the run has SolveStats
//                 "success": true|false,    // only when it has no stats
//                 "detail": "...",          // optional one-line note
//                 "metrics": { "name": number, ... } },  // optional
//               ... ] }
//
// "metrics" holds what a driver measures beyond SolveStats (solves/sec,
// seconds per frequency, cache hits...), in the order the driver added
// them; a run may carry it next to, or instead of, "stats".
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "coupled/coupled.h"

namespace cs::coupled {

/// One SolveStats as a JSON object (phases, stages and counters included).
std::string stats_json(const SolveStats& stats);

/// The solver-relevant Config fields as a JSON object.
std::string config_json(const Config& config);

/// A driver's own measurements of one run, by name, in rendering order.
using RunMetrics = std::vector<std::pair<std::string, double>>;

/// Accumulates labelled runs and writes the report file.
class RunReport {
 public:
  explicit RunReport(std::string binary_name)
      : binary_(std::move(binary_name)) {}

  /// A solve run: its Config and SolveStats, plus optional metrics and a
  /// one-line detail.
  void add(const std::string& label, const std::string& config_desc,
           const Config& config, const SolveStats& stats,
           const RunMetrics& metrics = {}, const std::string& detail = "");

  /// A run without SolveStats of its own (a sweep mode, a serving pass, a
  /// checkpoint round trip): `success` states its outcome. `config` may be
  /// null when the run's solver configuration is not known to the driver.
  void add(const std::string& label, const std::string& config_desc,
           const Config* config, bool success, const RunMetrics& metrics,
           const std::string& detail = "");

  std::size_t size() const { return entries_.size(); }

  std::string json() const;

  /// Write json() to `path`; false (with a log_warn) on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Entry {
    std::string label;
    std::string config_desc;
    std::string config_json;  ///< "" when the run has no Config
    std::string stats_json;   ///< "" when the run has no SolveStats
    bool success = false;     ///< written only when stats_json is ""
    std::string detail;
    RunMetrics metrics;
  };

  std::string binary_;
  std::vector<Entry> entries_;
};

}  // namespace cs::coupled
