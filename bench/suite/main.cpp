// bench_suite entry point. One invocation runs one workload:
//
//   bench_suite --workload=factor-hmat --seed=1 --seconds=20 --out=r.json
//   bench_suite --workload=serve --seed=1 --trace=serve.trace.json
//               --out=serve.layers.json
//
// prints every metric by name with its unit, writes the report JSON and
// exits 1 when any answer failed validation. `--smoke` runs every workload
// shrunk and traced, and checks the metric names against BENCHMARK.json.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/cli.h"
#include "common/json.h"
#include "common/log.h"
#include "common/timer.h"
#include "common/trace.h"
#include "suite.h"

using namespace cs;
using namespace cs::suite;

namespace {

const std::vector<std::string> kWorkloads = {"factor-hmat", "factor-sparse",
                                             "freq-sweep", "serve"};

int default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(hw, 1, 4));
}

Outcome run_workload(const Options& opts) {
  Outcome out;
  auto& tracer = Tracer::instance();
  tracer.clear();
  if (opts.workload == "factor-hmat")
    run_factor(opts, coupled::Strategy::kMultiSolveCompressed, out);
  else if (opts.workload == "factor-sparse")
    run_factor(opts, coupled::Strategy::kMultiFactorization, out);
  else if (opts.workload == "freq-sweep")
    run_sweep(opts, out);
  else
    run_serve(opts, out);
  tracer.set_enabled(false);
  return out;
}

std::string metric_json(const suite::Metric& m) {
  return "{\"value\":" + json::number(m.value) + ",\"unit\":\"" +
         json::escape(m.unit) + "\",\"n\":" + std::to_string(m.n) +
         ",\"q1\":" + json::number(m.q1) + ",\"q3\":" + json::number(m.q3) +
         "}";
}

std::string map_json(const MetricMap& map) {
  std::string s = "{";
  for (const auto& [name, m] : map) {
    if (s.size() > 1) s += ",";
    s += '"';
    s += json::escape(name);
    s += "\":";
    s += metric_json(m);
  }
  return s + "}";
}

std::string report_json(const Options& opts, const Outcome& out,
                        const std::string& git) {
  std::string s = "{\"binary\":\"bench_suite\"";
  s += ",\"host\":{\"nproc\":" +
       std::to_string(std::thread::hardware_concurrency()) +
       ",\"threads\":" + std::to_string(opts.threads) +
       ",\"build_type\":\"" CS_BUILD_TYPE "\",\"compiler\":\"" +
       json::escape(__VERSION__) + "\"}";
  s += ",\"git\":\"" + json::escape(git) + "\"";
  s += ",\"seed\":" + std::to_string(opts.seed);
  s += ",\"workload\":\"" + json::escape(opts.workload) + "\"";
  s += ",\"traced\":" + std::string(opts.traced ? "true" : "false");
  s += ",\"seconds\":" + json::number(opts.seconds);
  s += ",\"attempted\":" + std::to_string(out.attempted);
  s += ",\"failed\":" + std::to_string(out.failed);
  s += ",\"problems\":[";
  for (std::size_t i = 0; i < out.problems.size(); ++i)
    s += (i ? ",\"" : "\"") + json::escape(out.problems[i]) + "\"";
  s += "],\"metrics\":" + map_json(out.metrics);
  s += ",\"layers\":" + map_json(out.layers) + "}\n";
  return s;
}

void print_map(const char* title, const MetricMap& map) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : map) {
    std::printf("  %-36s %14.6g %-8s n=%zu", name.c_str(), m.value,
                m.unit.c_str(), m.n);
    if (m.n > 1) std::printf("  [q1 %.6g, q3 %.6g]", m.q1, m.q3);
    std::printf("\n");
  }
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return static_cast<bool>(f);
}

/// Names in `required` missing from `map`; with `units` given, also names
/// whose unit differs from the one listed there.
std::vector<std::string> missing_metrics(
    const MetricMap& map, const std::vector<std::string>& required,
    const std::map<std::string, std::string>* units = nullptr) {
  std::vector<std::string> missing;
  for (const auto& name : required) {
    auto it = map.find(name);
    if (it == map.end() || !std::isfinite(it->second.value)) {
      missing.push_back(name);
    } else if (units != nullptr && units->count(name) &&
               units->at(name) != it->second.unit) {
      missing.push_back(name + " (unit " + it->second.unit + ", listed " +
                        units->at(name) + ")");
    }
  }
  return missing;
}

/// Wall time of every coupled factorization minus its phases: the phase
/// clocks may never claim more time than the call took.
std::vector<std::string> phase_sum_problems(const Outcome& out) {
  std::vector<std::string> problems;
  for (const FactorRecord& rec : out.factorizations) {
    const double phases = rec.stats.phases.total();
    const double unattributed = rec.wall_s - phases;
    if (unattributed < -1e-3 || std::abs(phases + unattributed - rec.wall_s) >
                                     1e-9 * std::max(1.0, rec.wall_s))
      problems.push_back("phases " + std::to_string(phases) +
                         " s exceed the factorization wall time " +
                         std::to_string(rec.wall_s) + " s");
  }
  if (out.factorizations.empty())
    problems.push_back("no coupled factorization was recorded");
  return problems;
}

/// name -> unit of one BENCHMARK.json metric list.
std::map<std::string, std::string> listed_units(const json::Value& doc,
                                                const char* key) {
  std::map<std::string, std::string> units;
  if (const json::Value* list = doc.find(key); list && list->is_array())
    for (const auto& m : list->array) {
      const json::Value* name = m.find("name");
      const json::Value* unit = m.find("unit");
      if (name && unit) units[name->string] = unit->string;
    }
  return units;
}

/// The shrunk end-to-end check: every workload once at N = 2,400, traced.
int run_smoke(const std::string& out_dir, int threads) {
  std::filesystem::create_directories(out_dir);
  std::vector<std::string> failures;
  auto fail = [&](const std::string& w, const std::string& what) {
    failures.push_back(w + ": " + what);
    std::fprintf(stderr, "SMOKE FAIL %s: %s\n", w.c_str(), what.c_str());
  };

  std::ifstream bench_file(CS_BENCHMARK_JSON);
  std::stringstream text;
  text << bench_file.rdbuf();
  json::Value doc;
  std::string err;
  if (!bench_file || !json::parse(text.str(), &doc, &err)) {
    fail("BENCHMARK.json", "cannot read " CS_BENCHMARK_JSON " " + err);
    return 1;
  }
  const auto e2e_units = listed_units(doc, "end_to_end");
  const auto layer_units = listed_units(doc, "per_layer");
  auto same_names = [&](const std::map<std::string, std::string>& listed,
                        const std::vector<std::string>& produced,
                        const char* what) {
    std::vector<std::string> names;
    for (const auto& [name, unit] : listed) names.push_back(name);
    std::vector<std::string> sorted = produced;
    std::sort(sorted.begin(), sorted.end());
    if (names != sorted)
      fail("BENCHMARK.json", std::string(what) +
                                 " names differ from the ones the suite "
                                 "reports");
  };
  same_names(e2e_units, end_to_end_names(), "end_to_end");
  same_names(layer_units, layer_names(), "per_layer");

  for (const std::string& w : kWorkloads) {
    Options opts;
    opts.workload = w;
    opts.threads = threads;
    opts.smoke = true;
    opts.traced = true;
    opts.scratch_dir = out_dir;
    Timer t;
    const Outcome out = run_workload(opts);
    std::printf("smoke %-14s %6.2f s, %ld operations, %ld failed\n",
                w.c_str(), t.seconds(), out.attempted, out.failed);
    if (out.attempted == 0 || out.failed != 0)
      fail(w, "validation failed" +
                  (out.problems.empty() ? "" : ": " + out.problems.front()));
    for (const auto& m : missing_metrics(out.metrics, end_to_end_names(),
                                         &e2e_units))
      fail(w, "end-to-end metric missing: " + m);
    for (const auto& m :
         missing_metrics(out.layers, layer_names(), &layer_units))
      fail(w, "per-layer metric missing: " + m);
    for (const auto& p : phase_sum_problems(out)) fail(w, p);

    const std::string trace_text = Tracer::instance().to_json();
    const std::string invalid = validate_chrome_trace(trace_text);
    if (!invalid.empty()) fail(w, "trace does not validate: " + invalid);
    if (trace_text.find("\"bench.") == std::string::npos)
      fail(w, "trace holds no bench.* span");
    write_file(out_dir + "/" + w + ".trace.json", trace_text);
    write_file(out_dir + "/" + w + ".layers.json",
               report_json(opts, out, "smoke"));
  }
  std::printf("smoke: %s\n", failures.empty() ? "ok" : "FAILED");
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.describe("workload", "factor-hmat | factor-sparse | freq-sweep | serve");
  args.describe("seed", "input seed (default 1)");
  args.describe("seconds", "measurement window in seconds (default 20)");
  args.describe("threads", "solver threads (default min(4, nproc))");
  args.describe("trace",
                "traced run: write the Chrome trace here and report the "
                "per-layer metrics");
  args.describe("out", "write the report JSON here");
  args.describe("scratch-dir",
                "directory for checkpoint and spill files (default .)");
  args.describe("git", "revision recorded in the report");
  args.describe("smoke",
                "run every workload shrunk and traced, check names, "
                "units, validation and the trace");
  args.describe("out-dir", "--smoke output directory (default .)");
  args.check(
      "The repository benchmark: one workload per invocation, every metric "
      "printed with its unit, every answer validated.");
  set_log_level(LogLevel::kWarn);

  const int threads =
      static_cast<int>(args.get_int("threads", default_threads()));
  if (threads < 1) {
    std::fprintf(stderr, "--threads must be >= 1\n");
    return 2;
  }
  omp_set_num_threads(threads);
  if (args.get_bool("smoke", false))
    return run_smoke(args.get("out-dir", "."), threads);

  Options opts;
  opts.workload = args.get("workload", "");
  if (std::find(kWorkloads.begin(), kWorkloads.end(), opts.workload) ==
      kWorkloads.end()) {
    std::fprintf(stderr, "unknown --workload '%s' (see --help)\n",
                 opts.workload.c_str());
    return 2;
  }
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opts.seconds = args.get_double("seconds", 20);
  opts.threads = threads;
  const std::string trace_path = args.get("trace", "");
  opts.traced = !trace_path.empty();
  opts.scratch_dir = args.get("scratch-dir", ".");

  const Outcome out = run_workload(opts);
  print_map("end-to-end and workload metrics:", out.metrics);
  if (opts.traced) print_map("per-layer metrics:", out.layers);
  for (const auto& p : out.problems) std::printf("FAILED: %s\n", p.c_str());
  std::printf("operations: %ld attempted, %ld failed\n", out.attempted,
              out.failed);

  bool complete = missing_metrics(out.metrics, end_to_end_names()).empty();
  if (opts.traced) {
    complete = complete && missing_metrics(out.layers, layer_names()).empty();
    if (!Tracer::instance().write_json(trace_path)) complete = false;
  }
  const std::string out_path = args.get("out", "");
  if (!out_path.empty() &&
      !write_file(out_path, report_json(opts, out, args.get("git", "unknown"))))
    complete = false;
  return complete && out.attempted > 0 && out.failed == 0 ? 0 : 1;
}
