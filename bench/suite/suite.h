// bench_suite: the repository's benchmark harness (see README.md here).
// One process runs one named workload, prints every metric by name with
// its unit, validates every answer it gets back, and writes one report
// schema that `run.py --compare` diffs. Layers are timed from the outside,
// through each module's public functions; nothing under src/ knows it is
// being benchmarked.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "coupled/coupled.h"
#include "fembem/system.h"

namespace cs::suite {

/// One reported number: the value (the median, for sampled timings) with
/// its unit, the sample count behind it and the sample quartiles (equal to
/// the value for a single measurement).
struct Metric {
  double value = 0;
  std::string unit;
  std::size_t n = 1;
  double q1 = 0, q3 = 0;
};
using MetricMap = std::map<std::string, Metric>;

/// A single measurement (n = 1).
Metric single(double value, const std::string& unit);

/// Median and quartiles of `samples`. Quartiles follow Python's
/// statistics.quantiles(method="exclusive"), the rule the compare mode and
/// the acceptance spreads use.
Metric summarize(std::vector<double> samples, const std::string& unit);

/// A percentile with the support behind it.
struct Percentile {
  double value = 0;        ///< nearest-rank sample at the quantile
  std::size_t n = 0;       ///< samples in total
  std::size_t beyond = 0;  ///< samples ranked strictly above the value
};

/// The nearest-rank q-quantile of `samples`, or nullopt when fewer than
/// `min_beyond` samples rank above it: a "p99" of 64 samples is the
/// second-largest sample, an anecdote rather than a tail.
std::optional<Percentile> percentile(std::vector<double> samples, double q,
                                     std::size_t min_beyond = 10);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;  ///< measurement window of the timed section
  int threads = 4;
  bool smoke = false;   ///< N = 2,400, one timed iteration, 2 s open loop
  bool traced = false;  ///< record bench.* spans and run the layer probes
  std::string scratch_dir = ".";  ///< checkpoint and spill files
};

/// One timed coupled factorization: wall time measured around the call,
/// and the stats the call reported.
struct FactorRecord {
  double wall_s = 0;
  coupled::SolveStats stats;
};

/// Everything one workload invocation measured.
struct Outcome {
  MetricMap metrics;  ///< end-to-end metrics plus workload detail
  MetricMap layers;   ///< per-layer metrics (traced invocations only)
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;  ///< first validation failures
  std::vector<FactorRecord> factorizations;

  /// Count one operation; a failed one is recorded with `what`.
  void count(bool ok, const std::string& what);
};

/// One coupled factorization inside a bench.coupled.factorize span; *wall_s
/// receives the wall time measured around the call.
coupled::FactoredCoupled<double> timed_factorize(
    const fembem::CoupledSystem<double>& sys, const coupled::Config& cfg,
    double* wall_s);

/// Workload entry points (workloads.cpp). Each builds its inputs from the
/// seed, warms up, measures for opts.seconds, validates every result and,
/// when traced, runs the layer probes on its own matrices.
void run_factor(const Options& opts, coupled::Strategy strategy,
                Outcome& out);
void run_sweep(const Options& opts, Outcome& out);
void run_serve(const Options& opts, Outcome& out);

/// Per-layer probes (probes.cpp), run after a traced workload on that
/// workload's system and configuration. `handle` is the last of the
/// workload's own factorizations (recorded in out.factorizations); when
/// null, the probes factorize `sys` themselves.
void run_layer_probes(const Options& opts,
                      const fembem::CoupledSystem<double>& sys,
                      const coupled::Config& cfg, double system_build_s,
                      const coupled::FactoredCoupled<double>* handle,
                      Outcome& out);

/// Names of the contract metrics, in the order BENCHMARK.json lists them.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& layer_names();

}  // namespace cs::suite
