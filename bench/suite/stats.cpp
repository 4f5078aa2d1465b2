// Sample statistics and the names of the metrics BENCHMARK.json lists.
#include <algorithm>
#include <cmath>

#include "suite.h"

namespace cs::suite {

Metric single(double value, const std::string& unit) {
  return Metric{value, unit, 1, value, value};
}

Metric summarize(std::vector<double> samples, const std::string& unit) {
  if (samples.empty()) return Metric{0, unit, 0, 0, 0};
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double median = n % 2 == 1
                            ? samples[n / 2]
                            : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  if (n < 2) return Metric{median, unit, n, median, median};
  // statistics.quantiles(data, n=4, method="exclusive"): position i*(n+1)/4
  // in 1-based order statistics, clamped to [1, n-1], linearly interpolated.
  auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  };
  return Metric{median, unit, n, quartile(1), quartile(3)};
}

std::optional<Percentile> percentile(std::vector<double> samples, double q,
                                     std::size_t min_beyond) {
  if (samples.empty() || !(q > 0) || q > 1) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));  // 1-based
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, n) - 1;
  const std::size_t beyond = n - 1 - idx;
  if (beyond < min_beyond) return std::nullopt;
  return Percentile{samples[idx], n, beyond};
}

void Outcome::count(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (problems.size() < 20) problems.push_back(what);
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s", "latency_ms", "throughput_per_s", "peak_mib"};
  return names;
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "la.gemm_gflops",
      "la.gemm_small_gflops",
      "sparsedirect.analyze_s",
      "sparsedirect.factor_s",
      "sparsedirect.solve_s",
      "sparsedirect.factor_mib",
      "hmat.assemble_s",
      "hmat.lu_s",
      "hmat.solve_s",
      "hmat.compression_ratio",
      "hmat.max_rank",
      "dense.factor_s",
      "fembem.system_s",
      "fembem.generator_multiply_s",
      "coupled.sparse_factorization_s",
      "coupled.schur_s",
      "coupled.dense_factorization_s",
      "coupled.unattributed_s",
      "coupled.wall_s",
      "coupled.factor_mib",
      "coupled.peak_mib",
      "coupled.planner_misprediction",
      "coupled.serial_factorize_s",
      "coupled.parallel_speedup",
      "common.checkpoint_save_s",
      "common.checkpoint_load_s",
      "common.checkpoint_mib",
      "bench.trace_overhead_pct",
  };
  return names;
}

}  // namespace cs::suite
