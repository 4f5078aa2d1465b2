#include "tools/cs_report.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/memory.h"

namespace cs::tools {

namespace {

std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

double dnum(const json::Value* v) {
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

std::size_t bnum(const json::Value* v) {
  const double d = dnum(v);
  return d > 0 ? static_cast<std::size_t>(d) : 0;
}

std::string sstr(const json::Value* v, const char* dflt = "?") {
  return v != nullptr && v->is_string() ? v->string : dflt;
}

/// "label / config_desc" -- the identity used for run headers and for
/// matching runs across two reports in diff mode.
std::string run_key(const json::Value& run) {
  return sstr(run.find("label")) + " / " + sstr(run.find("config_desc"));
}

const json::Value* run_stats(const json::Value& run) {
  const json::Value* s = run.find("stats");
  return s != nullptr && s->is_object() ? s : nullptr;
}

/// A run's outcome: its stats' success flag, or the run's own when it has
/// no stats.
bool run_ok(const json::Value& run) {
  const json::Value* stats = run_stats(run);
  const json::Value* success =
      (stats != nullptr ? stats : &run)->find("success");
  return success != nullptr && success->is_bool() && success->boolean;
}

/// "success", or "FAILED (why)" with the stats' failure or the run's
/// detail as the reason.
std::string run_status(const json::Value& run) {
  if (run_ok(run)) return "success";
  const json::Value* stats = run_stats(run);
  const std::string why =
      sstr(stats != nullptr ? stats->find("failure") : run.find("detail"), "");
  return why.empty() ? "FAILED" : "FAILED (" + why + ")";
}

const json::Value* run_metrics(const json::Value& run) {
  const json::Value* m = run.find("metrics");
  return m != nullptr && m->is_object() && !m->object.empty() ? m : nullptr;
}

/// One metric value: integral values as integers, others to 4 significant
/// digits, "-" for a null (non-finite) one.
std::string metric_cell(const json::Value& v) {
  if (!v.is_number()) return "-";
  if (v.number == std::floor(v.number) && std::fabs(v.number) < 1e15)
    return fmt("%.0f", v.number);
  return fmt("%.4g", v.number);
}

int metric_width(const std::string& name) {
  return std::max(10, static_cast<int>(name.size()));
}

/// Peak-attribution rows of one run, largest owner first.
std::vector<std::pair<std::string, std::size_t>> tag_rows(
    const json::Value* stats) {
  std::vector<std::pair<std::string, std::size_t>> rows;
  if (stats == nullptr) return rows;
  const json::Value* by_tag = stats->find("peak_by_tag");
  if (by_tag == nullptr || !by_tag->is_object()) return rows;
  for (const auto& [tag, bytes] : by_tag->object)
    rows.emplace_back(tag, bnum(&bytes));
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return rows;
}

std::string planner_verdict(double ratio) {
  if (ratio <= 0) return "n/a";
  if (ratio > 1.05) return "over";
  if (ratio < 0.95) return "under";
  return "good";
}

void append_run_analysis(std::string& out, const json::Value& run,
                         std::size_t index, const ReportOptions& opts) {
  const json::Value* stats = run_stats(run);
  const json::Value* config = run.find("config");
  out += fmt("-- run %zu: %s --\n", index + 1, run_key(run).c_str());
  if (stats == nullptr) {
    // A metrics run states its outcome itself; its numbers are in the
    // metrics table.
    if (run.find("success") != nullptr)
      out += fmt("  status     : %s\n\n", run_status(run).c_str());
    else
      out += "  (no stats object)\n\n";
    return;
  }
  const std::string status = run_status(run);
  const std::string strategy =
      config != nullptr ? sstr(config->find("strategy")) : "?";
  out += fmt("  strategy   : %s\n", strategy.c_str());
  out += fmt("  status     : %s\n", status.c_str());
  out += fmt("  n          : %.0f  (fem %.0f, bem %.0f)\n",
             dnum(stats->find("n_total")), dnum(stats->find("n_fem")),
             dnum(stats->find("n_bem")));
  out += fmt("  total      : %.3f s\n", dnum(stats->find("total_seconds")));
  out += fmt("  rel error  : %.3e\n", dnum(stats->find("relative_error")));

  // Peak attribution: decompose the high-water mark by owning subsystem.
  // Reports written before tagged accounting existed simply lack the
  // field; print an explicit "-" rather than fail or silently omit.
  const std::size_t peak = bnum(stats->find("peak_bytes"));
  out += fmt("  peak       : %s\n", format_bytes(peak).c_str());
  const json::Value* by_tag = stats->find("peak_by_tag");
  if (by_tag == nullptr || !by_tag->is_object()) {
    out += "  peak attribution: -\n";
  }
  const auto rows = tag_rows(stats);
  if (!rows.empty()) {
    out += "  peak attribution:\n";
    std::size_t tagged_sum = 0;
    for (const auto& [tag, bytes] : rows) {
      if (tag == "pack.scratch") {
        out += fmt("    %-16s %12s   (budget-exempt)\n", tag.c_str(),
                   format_bytes(bytes).c_str());
        continue;
      }
      tagged_sum += bytes;
      const double pct =
          peak > 0 ? 100.0 * static_cast<double>(bytes) / peak : 0.0;
      out += fmt("    %-16s %12s   %5.1f%%\n", tag.c_str(),
                 format_bytes(bytes).c_str(), pct);
    }
    const double coverage =
        peak > 0 ? 100.0 * static_cast<double>(tagged_sum) / peak : 0.0;
    out += fmt("    %-16s %12s   %5.1f%% of peak\n", "tagged sum",
               format_bytes(tagged_sum).c_str(), coverage);
  }

  // Planner audit for this run.  A missing field (pre-planner report)
  // prints "-"; a present-but-zero prediction stays silent as before.
  const json::Value* predicted_v = stats->find("planner_predicted_bytes");
  const std::size_t predicted = bnum(predicted_v);
  const double ratio = dnum(stats->find("planner_misprediction"));
  if (predicted_v == nullptr)
    out += "  planner    : -\n";
  else if (predicted > 0)
    out += fmt("  planner    : predicted %s, measured %s  (x%.2f, %s)\n",
               format_bytes(predicted).c_str(), format_bytes(peak).c_str(),
               ratio, planner_verdict(ratio).c_str());

  // Checkpoint provenance: where this handle's factors came from.
  const json::Value* ckpt_src = stats->find("checkpoint_source");
  if (ckpt_src != nullptr && ckpt_src->is_string() &&
      !ckpt_src->string.empty()) {
    const std::size_t ckpt_bytes = bnum(stats->find("checkpoint_bytes"));
    out += fmt("  checkpoint : %s (%s)\n", ckpt_src->string.c_str(),
               ckpt_bytes > 0 ? format_bytes(ckpt_bytes).c_str() : "-");
  }

  // Hottest stages.
  const json::Value* stages = stats->find("stages");
  if (stages != nullptr && stages->is_object() && !stages->object.empty()) {
    std::vector<std::pair<std::string, double>> hot;
    for (const auto& [name, v] : stages->object)
      hot.emplace_back(name, dnum(&v));
    std::stable_sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    if (hot.size() > opts.top_stages) hot.resize(opts.top_stages);
    out += fmt("  top %zu stages (s):\n", hot.size());
    for (const auto& [name, seconds] : hot)
      out += fmt("    %-24s %9.3f\n", name.c_str(), seconds);
  }
  out += "\n";
}

/// Every run's metrics as one table: a row per run, a column per metric,
/// and a fresh header row wherever the metric names change (a sweep's mode
/// runs and its per-frequency runs measure different things).
void append_metrics_table(std::string& out, const json::Value& runs) {
  int key_width = 34;
  for (const auto& run : runs.array)
    if (run_metrics(run) != nullptr)
      key_width = std::max(key_width, static_cast<int>(run_key(run).size()));
  std::vector<std::string> header;
  for (const auto& run : runs.array) {
    const json::Value* metrics = run_metrics(run);
    if (metrics == nullptr) continue;
    if (header.empty()) out += "\n== metrics ==\n";
    std::vector<std::string> names;
    for (const auto& [name, value] : metrics->object) names.push_back(name);
    if (names != header) {
      if (!header.empty()) out += "\n";
      header = names;
      out += fmt("  %-*s %-6s", key_width, "run", "status");
      for (const std::string& name : names)
        out += fmt(" %*s", metric_width(name), name.c_str());
      out += "\n";
    }
    out += fmt("  %-*s %-6s", key_width, run_key(run).c_str(),
               run_ok(run) ? "ok" : "FAILED");
    for (const auto& [name, value] : metrics->object)
      out += fmt(" %*s", metric_width(name), metric_cell(value).c_str());
    const std::string detail = sstr(run.find("detail"), "");
    if (!detail.empty()) out += "  " + detail;
    out += "\n";
  }
}

/// A-vs-B rows for the metrics two matched runs share: both values and
/// their B/A ratio ("-" where A is zero or a value is null).
void append_metrics_diff(std::string& out, const json::Value& run_a,
                         const json::Value& run_b) {
  const json::Value* ma = run_metrics(run_a);
  const json::Value* mb = run_metrics(run_b);
  if (ma == nullptr || mb == nullptr) return;
  for (const auto& [name, va] : ma->object) {
    const json::Value* vb = mb->find(name);
    if (vb == nullptr) continue;
    const bool ratio = va.is_number() && vb->is_number() && va.number != 0;
    out += fmt("    %-32s %10s %10s %6s\n", name.c_str(),
               metric_cell(va).c_str(), metric_cell(*vb).c_str(),
               ratio ? fmt("%.2f", vb->number / va.number).c_str() : "-");
  }
}

}  // namespace

json::Value load_report(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr)
    throw std::runtime_error("cs-report: cannot open " + path);
  std::string text;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  std::fclose(f);
  json::Value doc;
  std::string err;
  if (!json::parse(text, &doc, &err))
    throw std::runtime_error("cs-report: " + path + " is not JSON: " + err);
  const json::Value* runs = doc.find("runs");
  if (runs == nullptr || !runs->is_array())
    throw std::runtime_error("cs-report: " + path +
                             " lacks a \"runs\" array (not a run report?)");
  return doc;
}

std::string analyze_report(const json::Value& report,
                           const ReportOptions& opts) {
  const json::Value* runs = report.find("runs");
  if (runs == nullptr || !runs->is_array())
    throw std::runtime_error("cs-report: report lacks a \"runs\" array");
  std::string out;
  out += fmt("== report: %s (%zu runs) ==\n\n",
             sstr(report.find("binary")).c_str(), runs->array.size());
  for (std::size_t i = 0; i < runs->array.size(); ++i)
    append_run_analysis(out, runs->array[i], i, opts);

  // Cross-run planner audit: predicted-vs-measured per strategy at a
  // glance, the table the CI misprediction guard reads by eye.
  out += "== planner audit (predicted vs measured peak) ==\n";
  out += fmt("  %-34s %12s %12s %7s  %s\n", "run", "predicted", "measured",
             "ratio", "verdict");
  for (const auto& run : runs->array) {
    const json::Value* stats = run_stats(run);
    if (stats == nullptr) continue;
    const std::size_t predicted = bnum(stats->find("planner_predicted_bytes"));
    const std::size_t peak = bnum(stats->find("peak_bytes"));
    // A ratio of 0 is "unknown" (SolveStats): a run the planner did not
    // predict, or a report written before the planner existed.
    const double ratio = dnum(stats->find("planner_misprediction"));
    out += fmt("  %-34s %12s %12s %7s  %s\n", run_key(run).c_str(),
               predicted > 0 ? format_bytes(predicted).c_str() : "-",
               format_bytes(peak).c_str(),
               ratio > 0 ? fmt("%.2f", ratio).c_str() : "-",
               ratio > 0 ? planner_verdict(ratio).c_str() : "-");
  }
  append_metrics_table(out, *runs);
  return out;
}

std::string diff_reports(const json::Value& a, const json::Value& b,
                         const ReportOptions&) {
  const json::Value* runs_a = a.find("runs");
  const json::Value* runs_b = b.find("runs");
  if (runs_a == nullptr || !runs_a->is_array() || runs_b == nullptr ||
      !runs_b->is_array())
    throw std::runtime_error("cs-report: diff inputs lack \"runs\" arrays");
  std::string out;
  out += fmt("== diff: A=%s vs B=%s ==\n", sstr(a.find("binary")).c_str(),
             sstr(b.find("binary")).c_str());
  out += fmt("  %-34s %10s %10s %6s %12s %12s %6s\n", "run", "time A",
             "time B", "B/A", "peak A", "peak B", "B/A");
  std::vector<bool> matched_b(runs_b->array.size(), false);
  std::vector<std::string> only_a;
  for (const auto& run_a : runs_a->array) {
    const std::string key = run_key(run_a);
    const json::Value* run_b = nullptr;
    for (std::size_t j = 0; j < runs_b->array.size(); ++j) {
      if (!matched_b[j] && run_key(runs_b->array[j]) == key) {
        matched_b[j] = true;
        run_b = &runs_b->array[j];
        break;
      }
    }
    if (run_b == nullptr) {
      only_a.push_back(key);
      continue;
    }
    const json::Value* sa = run_stats(run_a);
    const json::Value* sb = run_stats(*run_b);
    if (sa == nullptr && sb == nullptr) {
      // Metrics runs: no time or peak of their own to compare.
      out += fmt("  %s\n", key.c_str());
      append_metrics_diff(out, run_a, *run_b);
      continue;
    }
    const double ta = sa != nullptr ? dnum(sa->find("total_seconds")) : 0;
    const double tb = sb != nullptr ? dnum(sb->find("total_seconds")) : 0;
    const std::size_t pa = sa != nullptr ? bnum(sa->find("peak_bytes")) : 0;
    const std::size_t pb = sb != nullptr ? bnum(sb->find("peak_bytes")) : 0;
    out += fmt("  %-34s %9.3fs %9.3fs %6.2f %12s %12s %6.2f\n", key.c_str(),
               ta, tb, ta > 0 ? tb / ta : 0.0, format_bytes(pa).c_str(),
               format_bytes(pb).c_str(),
               pa > 0 ? static_cast<double>(pb) / static_cast<double>(pa)
                      : 0.0);
    append_metrics_diff(out, run_a, *run_b);
  }
  for (const std::string& key : only_a)
    out += fmt("  only in A: %s\n", key.c_str());
  for (std::size_t j = 0; j < runs_b->array.size(); ++j)
    if (!matched_b[j])
      out += fmt("  only in B: %s\n", run_key(runs_b->array[j]).c_str());
  return out;
}

}  // namespace cs::tools
