// Shared helpers for the experiment drivers (one binary per paper table /
// figure). Each driver prints the same rows/series the paper reports,
// scaled ~200x down so the full suite completes on one core; the *shape*
// (who wins, by what factor, where feasibility caps fall) is the
// reproduction target (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/cli.h"
#include "common/log.h"
#include "common/memory.h"
#include "common/table.h"
#include "common/trace.h"
#include "coupled/coupled.h"
#include "coupled/report.h"
#include "fembem/system.h"

namespace cs::bench {

/// Shared --threads flag (worker threads of the task-parallel layer; 0 =
/// hardware default). Every driver registers it so sweeps can pin the
/// thread count, and applies it with `apply_threads`.
inline void describe_threads(CliArgs& args) {
  args.describe("threads",
                "worker threads for the task-parallel layer "
                "(0 = hardware default)");
}

inline void apply_threads(const CliArgs& args, coupled::Config& cfg) {
  cfg.num_threads = static_cast<int>(args.get_int("threads", 0));
}

/// Shared --precision flag (factor storage precision). `single` stores and
/// applies every factor in float and leans on double-precision refinement,
/// so drivers sweeping memory feasibility see the halved factor footprint.
inline void describe_precision(CliArgs& args) {
  args.describe("precision",
                "factor precision: double (default) or single "
                "(float factors + double refinement)");
}

/// Applies --precision to `cfg`; exits with a usage error on anything but
/// "single" / "double". Single-precision factors need at least one
/// refinement sweep (validate_config enforces it), so drivers that default
/// to refine_iterations == 0 get one sweep here.
inline void apply_precision(const CliArgs& args, coupled::Config& cfg) {
  const std::string p = args.get("precision", "double");
  if (p == "double") {
    cfg.factor_precision = coupled::Precision::kDouble;
  } else if (p == "single") {
    cfg.factor_precision = coupled::Precision::kSingle;
    if (cfg.refine_iterations < 1) cfg.refine_iterations = 2;
  } else {
    std::fprintf(stderr, "unknown --precision '%s' (double | single)\n",
                 p.c_str());
    std::exit(2);
  }
}

/// Parses a --strategy value (coupled::strategy_name spelling); exits
/// with a usage error on an unknown name.
inline coupled::Strategy strategy_by_name(const std::string& name) {
  if (const auto s = coupled::strategy_from_name(name)) return *s;
  std::fprintf(stderr, "unknown --strategy '%s' (see --help)\n",
               name.c_str());
  std::exit(2);
}

inline std::string mib(std::size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", bytes / (1024.0 * 1024.0));
  return buf;
}

inline std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", v);
  return buf;
}

/// Shared observability surface of every bench driver: --report collects
/// each run's Config, SolveStats and metrics into one run report
/// (coupled/report.h), --trace records all
/// runs of the invocation into one Chrome-trace file (open in Perfetto /
/// chrome://tracing), --trace-sample-us sets the memory-timeline sampling
/// period. Construct one per driver after CliArgs::check() and call
/// finish() (or rely on the destructor) before exiting.
class Observability {
 public:
  static void describe(CliArgs& args) {
    args.describe("report", "write the per-run report JSON here");
    args.describe("trace",
                  "write a Chrome trace (Perfetto-loadable) of all runs "
                  "here");
    args.describe("trace-sample-us",
                  "memory/counter sampling period in microseconds "
                  "(default 1000)");
  }

  Observability(const CliArgs& args, const std::string& binary_name)
      : report_path_(args.get("report", "")),
        trace_path_(args.get("trace", "")),
        report_(binary_name) {
    // The [run] progress lines go through the logger now; keep them
    // visible by default, as they were when they were raw fprintf calls.
    if (log_level() > LogLevel::kInfo) set_log_level(LogLevel::kInfo);
    if (!trace_path_.empty()) {
      Tracer::instance().set_enabled(true);
      const auto period = args.get_int("trace-sample-us", 1000);
      if (period > 0) sampler_.emplace(period);
    }
  }

  ~Observability() { finish(); }

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  void add(const std::string& label, const std::string& config_desc,
           const coupled::Config& cfg, const coupled::SolveStats& stats) {
    report_.add(label, config_desc, cfg, stats);
  }

  /// A run without SolveStats of its own (see RunReport::add).
  void add(const std::string& label, const std::string& config_desc,
           const coupled::Config* cfg, bool success,
           const coupled::RunMetrics& metrics,
           const std::string& detail = "") {
    report_.add(label, config_desc, cfg, success, metrics, detail);
  }

  /// Flush the report and trace files (idempotent).
  void finish() {
    if (done_) return;
    done_ = true;
    sampler_.reset();  // one last memory sample before export
    if (!trace_path_.empty()) {
      auto& tracer = Tracer::instance();
      if (tracer.write_json(trace_path_))
        log_info("trace: wrote ", tracer.event_count(), " events to ",
                 trace_path_);
      tracer.set_enabled(false);
    }
    if (!report_path_.empty()) {
      if (report_.write(report_path_))
        log_info("report: wrote ", report_.size(), " runs to ",
                 report_path_);
    }
  }

 private:
  std::string report_path_;
  std::string trace_path_;
  coupled::RunReport report_;
  std::optional<TraceSampler> sampler_;
  bool done_ = false;
};

/// Runs that failed although the driver did not expect them to (feasibility
/// probes past the paper's memory cliff *expect* failures; those do not
/// count). Drivers return exit_status() from main so CI treats an
/// unrecovered, unexpected failure as a red run instead of a quiet dash in
/// the table.
inline int& unexpected_failures() {
  static int count = 0;
  return count;
}

inline int exit_status() { return unexpected_failures() == 0 ? 0 : 1; }

/// Status cell of one run: "ok", "ok (N recoveries)" or the structured
/// error code of the final failed attempt.
inline std::string run_status(const coupled::SolveStats& stats) {
  if (stats.success) {
    if (stats.recoveries.empty()) return "ok";
    return "ok (" + std::to_string(stats.recoveries.size()) +
           (stats.recoveries.size() == 1 ? " recovery)" : " recoveries)");
  }
  return "FAILED: " + std::string(error_code_name(stats.error.code));
}

/// One experiment run: solve, emit a live progress line, add a row to the
/// final table and (when given) a run to the report. Returns the stats.
/// `failure_expected` marks feasibility probes whose out-of-budget outcome
/// is a datum, not a defect: such failures do not flip the exit status.
inline coupled::SolveStats run_and_row(
    const fembem::CoupledSystem<double>& sys, const coupled::Config& cfg,
    TablePrinter& table, const std::string& label,
    const std::string& config_desc, Observability* obs = nullptr,
    bool failure_expected = false) {
  log_info("[run] ", label, " ", config_desc, " N=", sys.total(), " ...");
  auto stats = coupled::solve_coupled(sys, cfg);
  log_info("[run]   -> ", run_status(stats), ", ",
           TablePrinter::fmt(stats.total_seconds, 1), " s, peak ",
           mib(stats.peak_bytes), " MiB");
  if (!stats.success) {
    log_info("[run]      ", stats.failure);
    if (!failure_expected) ++unexpected_failures();
  }
  for (const auto& rec : stats.recoveries)
    log_info("[run]      recovery: ", rec.action, " after ", rec.error, " (",
             rec.detail, ")");
  table.add_row({label, config_desc, TablePrinter::fmt_int(stats.n_total),
                 stats.success ? TablePrinter::fmt(stats.total_seconds, 1)
                               : "-",
                 stats.success ? mib(stats.peak_bytes) : "-",
                 stats.success ? sci(stats.relative_error) : "-",
                 run_status(stats)});
  if (obs != nullptr) obs->add(label, config_desc, cfg, stats);
  std::fflush(stdout);
  return stats;
}

inline const char* kRowHeaderNote =
    "(times in seconds; memory = tracked peak MiB; scaled-down reproduction"
    " — compare shapes, not absolute values, with the paper)";

}  // namespace cs::bench
