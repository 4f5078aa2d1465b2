// Per-layer probes of a traced run. Each probe calls one module's public
// functions on the workload's own matrices, with the options the coupled
// solver would pass, inside a bench.<layer>.<call> span, and times the call
// from outside. Every probe validates its answer like the workloads do.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>

#include "common/random.h"
#include "common/timer.h"
#include "common/trace.h"
#include "dense/dense_solver.h"
#include "hmat/cluster.h"
#include "hmat/hmatrix.h"
#include "la/blas.h"
#include "sparsedirect/multifrontal.h"
#include "suite.h"

namespace cs::suite {

namespace {

using la::Matrix;

constexpr index_t kProbeCols = 64;

double mib(std::size_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

Matrix<double> random_block(index_t rows, index_t cols, std::uint64_t seed) {
  Matrix<double> m(rows, cols);
  Rng rng(seed);
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i) m(i, j) = rng.uniform(-1.0, 1.0);
  return m;
}

/// max_j ||X(:,j) - ref(:,j)|| / ||ref(:,j)||, 1e300 when not finite.
double column_error(const Matrix<double>& x, const Matrix<double>& ref) {
  double worst = 0;
  for (index_t j = 0; j < x.cols(); ++j) {
    double num = 0, den = 0;
    for (index_t i = 0; i < x.rows(); ++i) {
      num += (x(i, j) - ref(i, j)) * (x(i, j) - ref(i, j));
      den += ref(i, j) * ref(i, j);
    }
    const double e = std::sqrt(num / std::max(den, 1e-300));
    worst = std::isfinite(e) ? std::max(worst, e) : 1e300;
  }
  return worst;
}

/// Achieved GFLOP/s of la::gemm on n x n x n, over at least `min_s` seconds.
double gemm_gflops(index_t n, double min_s) {
  const Matrix<double> a = random_block(n, n, 11), b = random_block(n, n, 12);
  Matrix<double> c(n, n);
  long calls = 0;
  Timer t;
  TraceSpan span("bench", "bench.la.gemm");
  span.arg("n", static_cast<long long>(n));
  do {
    la::gemm(1.0, a.cview(), la::Op::kNoTrans, b.cview(), la::Op::kNoTrans,
             0.0, c.view());
    ++calls;
  } while (t.seconds() < min_s);
  const double nd = static_cast<double>(n);
  return 2.0 * nd * nd * nd * static_cast<double>(calls) / t.seconds() / 1e9;
}

template <class F>
double timed(const char* span_name, F&& f) {
  TraceSpan span("bench", span_name);
  Timer t;
  f();
  return t.seconds();
}

void sparse_probes(const fembem::CoupledSystem<double>& sys,
                   const coupled::Config& cfg, Outcome& out) {
  // The options coupled's interior factorization uses (no Schur block).
  sparsedirect::SolverOptions so;
  so.symmetric = true;
  so.compress = cfg.sparse_compression;
  so.blr_eps = cfg.eps;
  so.ordering = cfg.ordering;
  so.parallel_fronts = cfg.parallel_fronts;
  so.ooc_dir = cfg.ooc_dir;
  auto& L = out.layers;
  {
    sparsedirect::MultifrontalSolver<double> probe;
    L["sparsedirect.analyze_s"] = single(
        timed("bench.sparsedirect.analyze",
              [&] { probe.analyze_only(sys.A_vv, so); }),
        "s");
  }
  sparsedirect::MultifrontalSolver<double> mf;
  L["sparsedirect.factor_s"] = single(
      timed("bench.sparsedirect.factorize", [&] { mf.factorize(sys.A_vv, so); }),
      "s");
  L["sparsedirect.factor_mib"] = single(mib(mf.factor_bytes()), "MiB");

  const Matrix<double> x = random_block(sys.nv(), kProbeCols, 21);
  Matrix<double> b(sys.nv(), kProbeCols);
  sys.A_vv.spmm(1.0, x.cview(), 0.0, b.view());
  L["sparsedirect.solve_s"] = single(
      timed("bench.sparsedirect.solve", [&] { mf.solve(b.view()); }), "s");
  const double err = column_error(b, x);
  out.count(err < 1e-2, "sparsedirect probe error " + std::to_string(err));
}

void dense_probes(const fembem::CoupledSystem<double>& sys,
                  const coupled::Config& cfg, Outcome& out) {
  const index_t ns = sys.ns();
  auto& L = out.layers;
  const Matrix<double> x = random_block(ns, kProbeCols, 31);
  Matrix<double> b(ns, kProbeCols);
  fembem::generator_multiply(*sys.A_ss, x.cview(), b.view());
  {
    Matrix<double> one(ns, 1);
    std::vector<double> runs;
    for (int r = 0; r < 3; ++r)
      runs.push_back(timed("bench.fembem.generator_multiply", [&] {
        fembem::generator_multiply(*sys.A_ss, x.block(0, 0, ns, 1),
                                   one.view());
      }));
    L["fembem.generator_multiply_s"] = summarize(runs, "s");
  }

  // hmat: A_ss compressed with coupled's leaf size and HOptions.
  hmat::HOptions ho;
  ho.eps = cfg.eps;
  ho.eta = cfg.eta;
  const hmat::ClusterTree tree(sys.surface_points(), cfg.hmat_leaf);
  std::optional<hmat::HMatrix<double>> h;
  L["hmat.assemble_s"] = single(timed("bench.hmat.assemble", [&] {
                                  h.emplace(hmat::HMatrix<double>::assemble(
                                      tree, tree, *sys.A_ss, ho));
                                }),
                                "s");
  L["hmat.compression_ratio"] = single(h->compression_ratio(), "1");
  L["hmat.max_rank"] = single(static_cast<double>(h->max_rank()), "count");
  L["hmat.lu_s"] =
      single(timed("bench.hmat.lu", [&] { h->lu_factorize(); }), "s");
  const auto& tree_to_orig = tree.original_of_tree();
  Matrix<double> bt(ns, kProbeCols);
  for (index_t j = 0; j < kProbeCols; ++j)
    for (index_t p = 0; p < ns; ++p)
      bt(p, j) = b(tree_to_orig[static_cast<std::size_t>(p)], j);
  L["hmat.solve_s"] =
      single(timed("bench.hmat.solve", [&] { h->solve(bt.view()); }), "s");
  Matrix<double> xh(ns, kProbeCols);
  for (index_t j = 0; j < kProbeCols; ++j)
    for (index_t p = 0; p < ns; ++p)
      xh(tree_to_orig[static_cast<std::size_t>(p)], j) = bt(p, j);
  const double herr = column_error(xh, x);
  out.count(herr < 1e-1, "hmat probe error " + std::to_string(herr));
  h.reset();

  // dense: the same block materialized and factored by DenseSolver.
  Matrix<double> a(ns, ns);
  fembem::generator_block(*sys.A_ss, 0, 0, a.view());
  dense::DenseSolver<double> ds;
  L["dense.factor_s"] = single(timed("bench.dense.factorize",
                                     [&] {
                                       ds.factorize(std::move(a),
                                                    sys.symmetric);
                                     }),
                               "s");
  ds.solve(b.view());
  const double derr = column_error(b, x);
  out.count(derr < 1e-6, "dense probe error " + std::to_string(derr));
}

/// Medians over the workload's recorded factorizations of every phase,
/// stage and counter SolveStats carries, plus the wall time no phase
/// claims.
void coupled_layers(const std::vector<FactorRecord>& recs, Outcome& out) {
  std::map<std::string, std::vector<double>> series;
  for (const FactorRecord& r : recs) {
    double phases = 0;
    for (const auto& [name, s] : r.stats.phases.all()) {
      series["coupled." + name + "_s"].push_back(s);
      phases += s;
    }
    for (const auto& [name, s] : r.stats.stages.all())
      series["coupled." + name + "_s"].push_back(s);
    for (const auto& [name, v] : r.stats.counters)
      series["coupled." + name].push_back(v);
    series["coupled.unattributed_s"].push_back(r.wall_s - phases);
    series["coupled.wall_s"].push_back(r.wall_s);
    series["coupled.factor_mib"].push_back(mib(r.stats.factor_bytes));
    series["coupled.peak_mib"].push_back(mib(r.stats.peak_bytes));
    series["coupled.planner_misprediction"].push_back(
        r.stats.planner_misprediction);
    series["coupled.recoveries"].push_back(
        static_cast<double>(r.stats.recoveries.size()));
  }
  for (auto& [name, v] : series) {
    const bool seconds = name.size() > 2 && name.ends_with("_s");
    const bool megabytes = name.ends_with("_mib");
    out.layers[name] = summarize(
        std::move(v), seconds ? "s" : megabytes ? "MiB" : "count");
  }
  out.layers["coupled.planner_misprediction"].unit = "1";
}

}  // namespace

void run_layer_probes(const Options& opts,
                      const fembem::CoupledSystem<double>& sys,
                      const coupled::Config& cfg, double system_build_s,
                      const coupled::FactoredCoupled<double>* handle,
                      Outcome& out) {
  auto& L = out.layers;
  const double gemm_s = opts.smoke ? 0.05 : 0.5;
  L["la.gemm_gflops"] = single(gemm_gflops(512, gemm_s), "GFLOP/s");
  L["la.gemm_small_gflops"] = single(gemm_gflops(64, gemm_s), "GFLOP/s");
  L["fembem.system_s"] = single(system_build_s, "s");
  sparse_probes(sys, cfg, out);
  dense_probes(sys, cfg, out);

  // coupled: the workload's own factorizations, or one made here.
  coupled::FactoredCoupled<double> own;
  if (handle == nullptr) {
    FactorRecord rec;
    own = timed_factorize(sys, cfg, &rec.wall_s);
    out.count(own.ok(), "probe factorization failed: " + own.stats().failure);
    if (!own.ok()) return;
    rec.stats = own.stats();
    out.factorizations.push_back(rec);
    handle = &own;
  }
  coupled_layers(out.factorizations, out);

  coupled::Config serial = cfg;
  serial.num_threads = 1;
  double serial_s = 0;
  const auto h1 = timed_factorize(sys, serial, &serial_s);
  out.count(h1.ok(), "1-thread factorization failed: " + h1.stats().failure);
  L["coupled.serial_factorize_s"] = single(serial_s, "s");
  L["coupled.parallel_speedup"] =
      single(serial_s / L["coupled.wall_s"].value, "1");

  // common: checkpoint round trip of the factorization.
  const std::string path = opts.scratch_dir + "/bench_suite_probe.ckpt";
  std::size_t bytes = 0;
  L["common.checkpoint_save_s"] = single(
      timed("bench.common.checkpoint_save", [&] { bytes = handle->save(path); }),
      "s");
  L["common.checkpoint_mib"] = single(mib(bytes), "MiB");
  coupled::FactoredCoupled<double> restored;
  L["common.checkpoint_load_s"] = single(
      timed("bench.common.checkpoint_load",
            [&] { restored = coupled::load_factored<double>(path, sys, cfg); }),
      "s");
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  bool ok = bytes > 0 && restored.ok() &&
            restored.stats().checkpoint_source == "checkpoint";
  if (ok) {
    Matrix<double> bv(sys.nv(), 1), bs(sys.ns(), 1);
    for (index_t i = 0; i < sys.nv(); ++i) bv(i, 0) = sys.b_v[i];
    for (index_t i = 0; i < sys.ns(); ++i) bs(i, 0) = sys.b_s[i];
    ok = restored.solve(bv.view(), bs.view()).success;
    la::Vector<double> xv(sys.nv()), xs(sys.ns());
    for (index_t i = 0; i < sys.nv(); ++i) xv[i] = bv(i, 0);
    for (index_t i = 0; i < sys.ns(); ++i) xs[i] = bs(i, 0);
    ok = ok && sys.relative_error(xv, xs) < 1e-2;
  }
  out.count(ok, "checkpoint round trip failed");
}

}  // namespace cs::suite
