#include "coupled/report.h"

#include <cstdio>

#include "common/json.h"
#include "common/log.h"

namespace cs::coupled {

namespace {

// json::number, not %.17g: a NaN relative_error (failed run) or an inf
// schur_compression_ratio must come out as `null`, not bare `nan`/`inf`
// that jq and this repo's own parser reject.
std::string num(double v) { return json::number(v); }

std::string str(const std::string& s) { return "\"" + json::escape(s) + "\""; }

std::string times_json(const PhaseTimes& times) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, seconds] : times.all()) {
    if (!first) out += ",";
    first = false;
    out += str(name) + ":" + num(seconds);
  }
  return out + "}";
}

}  // namespace

std::string stats_json(const SolveStats& stats) {
  std::string out = "{";
  out += "\"success\":" + std::string(stats.success ? "true" : "false");
  if (!stats.failure.empty()) out += ",\"failure\":" + str(stats.failure);
  if (stats.error.code != ErrorCode::kNone) {
    out += ",\"error\":{\"code\":" +
           str(error_code_name(stats.error.code)) +
           ",\"site\":" + str(stats.error.site) +
           ",\"detail\":" + str(stats.error.detail) + "}";
  }
  out += ",\"attempts\":" + std::to_string(stats.attempts);
  if (!stats.recoveries.empty()) {
    out += ",\"recoveries\":[";
    bool first_rec = true;
    for (const RecoveryAction& r : stats.recoveries) {
      if (!first_rec) out += ",";
      first_rec = false;
      out += "{\"action\":" + str(r.action) + ",\"error\":" + str(r.error) +
             ",\"detail\":" + str(r.detail) + "}";
    }
    out += "]";
  }
  out += ",\"n_total\":" + std::to_string(stats.n_total);
  out += ",\"n_fem\":" + std::to_string(stats.n_fem);
  out += ",\"n_bem\":" + std::to_string(stats.n_bem);
  out += ",\"total_seconds\":" + num(stats.total_seconds);
  out += ",\"phases\":" + times_json(stats.phases);
  out += ",\"stages\":" + times_json(stats.stages);
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : stats.counters) {
    if (!first) out += ",";
    first = false;
    out += str(name) + ":" + num(value);
  }
  out += "}";
  out += ",\"peak_bytes\":" + std::to_string(stats.peak_bytes);
  out += ",\"peak_by_tag\":{";
  first = true;
  for (const auto& [tag, bytes] : stats.peak_by_tag) {
    if (!first) out += ",";
    first = false;
    out += str(tag) + ":" + std::to_string(bytes);
  }
  out += "}";
  out += ",\"planner_predicted_bytes\":" +
         std::to_string(stats.planner_predicted_bytes);
  out += ",\"planner_misprediction\":" + num(stats.planner_misprediction);
  out += ",\"schur_bytes\":" + std::to_string(stats.schur_bytes);
  out += ",\"sparse_factor_bytes\":" +
         std::to_string(stats.sparse_factor_bytes);
  out += ",\"factor_bytes\":" + std::to_string(stats.factor_bytes);
  out += ",\"factor_precision\":" +
         str(precision_name(stats.factor_precision));
  out += ",\"schur_compression_ratio\":" +
         num(stats.schur_compression_ratio);
  out += ",\"relative_error\":" + num(stats.relative_error);
  if (!stats.checkpoint_source.empty()) {
    out += ",\"checkpoint_source\":" + str(stats.checkpoint_source);
    out += ",\"checkpoint_bytes\":" + std::to_string(stats.checkpoint_bytes);
  }
  if (stats.randomized_rank > 0)
    out += ",\"randomized_rank\":" + std::to_string(stats.randomized_rank);
  out += ",\"nrhs\":" + std::to_string(stats.nrhs);
  out += ",\"refine_sweeps\":" + std::to_string(stats.refine_sweeps);
  if (!stats.refine_residuals.empty()) {
    out += ",\"refine_residuals\":[";
    bool first_res = true;
    for (double r : stats.refine_residuals) {
      if (!first_res) out += ",";
      first_res = false;
      out += num(r);
    }
    out += "]";
  }
  return out + "}";
}

std::string config_json(const Config& config) {
  std::string out = "{";
  out += "\"strategy\":" + str(strategy_name(config.strategy));
  out += ",\"n_c\":" + std::to_string(config.n_c);
  out += ",\"n_S\":" + std::to_string(config.n_S);
  out += ",\"n_b\":" + std::to_string(config.n_b);
  out += ",\"eps\":" + num(config.eps);
  out += ",\"eta\":" + num(config.eta);
  out += ",\"sparse_compression\":" +
         std::string(config.sparse_compression ? "true" : "false");
  out += ",\"memory_budget\":" + std::to_string(config.memory_budget);
  out += ",\"num_threads\":" + std::to_string(config.num_threads);
  out += ",\"parallel_fronts\":" +
         std::string(config.parallel_fronts ? "true" : "false");
  out += ",\"refine_iterations\":" +
         std::to_string(config.refine_iterations);
  out += ",\"refine_tolerance\":" + num(config.refine_tolerance);
  out += ",\"factor_precision\":" +
         str(precision_name(config.factor_precision));
  out += ",\"auto_recover\":" +
         std::string(config.auto_recover ? "true" : "false");
  out += ",\"out_of_core\":" +
         std::string(config.out_of_core ? "true" : "false");
  if (!config.failpoints.empty())
    out += ",\"failpoints\":" + str(config.failpoints);
  return out + "}";
}

void RunReport::add(const std::string& label, const std::string& config_desc,
                    const Config& config, const SolveStats& stats,
                    const RunMetrics& metrics, const std::string& detail) {
  entries_.push_back(Entry{label, config_desc, coupled::config_json(config),
                           coupled::stats_json(stats), stats.success, detail,
                           metrics});
}

void RunReport::add(const std::string& label, const std::string& config_desc,
                    const Config* config, bool success,
                    const RunMetrics& metrics, const std::string& detail) {
  entries_.push_back(Entry{label, config_desc,
                           config != nullptr ? coupled::config_json(*config)
                                             : std::string(),
                           std::string(), success, detail, metrics});
}

std::string RunReport::json() const {
  std::string out = "{\"binary\":" + str(binary_) + ",\"runs\":[\n";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"label\":" + str(e.label) +
           ",\"config_desc\":" + str(e.config_desc);
    if (!e.config_json.empty()) out += ",\"config\":" + e.config_json;
    if (!e.stats_json.empty())
      out += ",\"stats\":" + e.stats_json;
    else
      out += ",\"success\":" + std::string(e.success ? "true" : "false");
    if (!e.detail.empty()) out += ",\"detail\":" + str(e.detail);
    if (!e.metrics.empty()) {
      out += ",\"metrics\":{";
      bool first_metric = true;
      for (const auto& [name, value] : e.metrics) {
        if (!first_metric) out += ",";
        first_metric = false;
        out += str(name) + ":" + num(value);
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool RunReport::write(const std::string& path) const {
  const std::string text = json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_warn("report: cannot open ", path, " for writing");
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) log_warn("report: short write to ", path);
  return ok;
}

}  // namespace cs::coupled
