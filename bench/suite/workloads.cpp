// The four workloads (README.md has the catalogue and why each exists).
// Every workload builds its inputs from the seed three times, warms up once
// (setup_s is the median build plus the warm-up), measures for
// opts.seconds, and validates every answer the solver returns. A traced run
// measures the window twice, first with tracing off (the overhead
// reference), then traced, and finally runs the layer probes.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>

#include "common/memory.h"
#include "common/random.h"
#include "common/timer.h"
#include "common/trace.h"
#include "coupled/sweep.h"
#include "fembem/shifted.h"
#include "server/service.h"
#include "suite.h"

namespace cs::suite {

namespace {

using coupled::Config;
using coupled::FactoredCoupled;
using fembem::CoupledSystem;
using la::Matrix;

constexpr index_t kSmokeN = 2400;
constexpr int kSetupReps = 3;
constexpr index_t kBlockCols = 64;

double mib(std::size_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

/// Timed iterations run until the window is spent, but at least
/// `min_iters` of them (one in a smoke run) so a median exists.
bool keep_going(const Options& opts, int done, int min_iters,
                const Timer& window) {
  if (opts.smoke) return done < 1;
  return done < min_iters || window.seconds() < opts.seconds;
}

/// setup_s: the median of the repeated input builds plus the one warm-up.
Metric setup_metric(const std::vector<double>& builds, double warmup_s) {
  Metric m = summarize(builds, "s");
  m.value += warmup_s;
  m.q1 += warmup_s;
  m.q3 += warmup_s;
  return m;
}

Metric scaled(Metric m, double factor, const std::string& unit) {
  m.value *= factor;
  m.q1 *= factor;
  m.q3 *= factor;
  m.unit = unit;
  return m;
}

/// Higher-is-better view of a time: the quartiles swap ends.
Metric reciprocal(const Metric& m, double numerator, const std::string& unit) {
  return Metric{numerator / m.value, unit, m.n, numerator / m.q3,
                numerator / m.q1};
}

Metric overhead_pct(double traced, double untraced) {
  return single(100.0 * (traced / untraced - 1.0), "%");
}

void start_tracing(const Options& opts) {
  if (opts.traced) Tracer::instance().set_enabled(true);
}

/// A seeded manufactured block: uniform random solution columns X and the
/// right-hand side B = A X formed through the operator's public pieces
/// (two sparse products and the BEM generator).
struct Block {
  Matrix<double> xv, xs, bv, bs;
};

Block manufactured_block(const CoupledSystem<double>& sys, index_t cols,
                         std::uint64_t seed) {
  const index_t nv = sys.nv(), ns = sys.ns();
  Block b{Matrix<double>(nv, cols), Matrix<double>(ns, cols),
          Matrix<double>(nv, cols), Matrix<double>(ns, cols)};
  Rng rng(seed);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < nv; ++i) b.xv(i, j) = rng.uniform(-1.0, 1.0);
    for (index_t i = 0; i < ns; ++i) b.xs(i, j) = rng.uniform(-1.0, 1.0);
  }
  sys.A_vv.spmm(1.0, b.xv.cview(), 0.0, b.bv.view());
  sys.A_sv.spmm_trans(1.0, b.xs.cview(), 1.0, b.bv.view());
  fembem::generator_multiply(*sys.A_ss, b.xs.cview(), b.bs.view());
  sys.A_sv.spmm(1.0, b.xv.cview(), 1.0, b.bs.view());
  return b;
}

/// The system's own manufactured right-hand side and solution as a
/// one-column block.
Block builtin_block(const CoupledSystem<double>& sys) {
  const index_t nv = sys.nv(), ns = sys.ns();
  Block b{Matrix<double>(nv, 1), Matrix<double>(ns, 1), Matrix<double>(nv, 1),
          Matrix<double>(ns, 1)};
  for (index_t i = 0; i < nv; ++i) {
    b.xv(i, 0) = sys.x_v_ref[i];
    b.bv(i, 0) = sys.b_v[i];
  }
  for (index_t i = 0; i < ns; ++i) {
    b.xs(i, 0) = sys.x_s_ref[i];
    b.bs(i, 0) = sys.b_s[i];
  }
  return b;
}

/// Worst per-column relative error of a solved block against its
/// manufactured solution (1e300 for a non-finite column).
double worst_error(const Matrix<double>& sv, const Matrix<double>& ss,
                   const Block& ref) {
  double worst = 0;
  for (index_t j = 0; j < sv.cols(); ++j) {
    double num = 0, den = 0;
    for (index_t i = 0; i < sv.rows(); ++i) {
      const double d = sv(i, j) - ref.xv(i, j);
      num += d * d;
      den += ref.xv(i, j) * ref.xv(i, j);
    }
    for (index_t i = 0; i < ss.rows(); ++i) {
      const double d = ss(i, j) - ref.xs(i, j);
      num += d * d;
      den += ref.xs(i, j) * ref.xs(i, j);
    }
    const double e = std::sqrt(num / std::max(den, 1e-300));
    worst = std::isfinite(e) ? std::max(worst, e) : 1e300;
  }
  return worst;
}

/// Solves `ref`'s right-hand side with `h`; returns the wall time and
/// stores the worst column error in *err (1e300 when the solve failed).
double timed_solve(const FactoredCoupled<double>& h, const Block& ref,
                   double* err) {
  Matrix<double> sv(ref.bv.rows(), ref.bv.cols());
  Matrix<double> ss(ref.bs.rows(), ref.bs.cols());
  sv.view().copy_from(ref.bv.cview());
  ss.view().copy_from(ref.bs.cview());
  Timer t;
  coupled::SolveStats st;
  {
    TraceSpan span("bench", "bench.coupled.solve");
    span.arg("nrhs", static_cast<long long>(ref.bv.cols()));
    st = h.solve(sv.view(), ss.view());
  }
  const double seconds = t.seconds();
  *err = st.success ? worst_error(sv, ss, ref) : 1e300;
  return seconds;
}

/// Polls the tracked-memory high-water mark from construction on. Each
/// coupled factorization resets the mark when it starts, so the maximum
/// over polls is the peak over a stretch of work that spans several
/// factorizations.
class PeakWatcher {
 public:
  PeakWatcher() {
    MemoryTracker::instance().reset_peak();  // drop earlier work's mark
    thread_ = std::thread([this] { loop(); });
  }
  ~PeakWatcher() { stop(); }
  PeakWatcher(const PeakWatcher&) = delete;
  PeakWatcher& operator=(const PeakWatcher&) = delete;

  /// Stops polling; returns the highest mark seen, in bytes.
  std::size_t stop() {
    if (thread_.joinable()) {
      done_.store(true);
      thread_.join();
    }
    return peak_;
  }

 private:
  void loop() {
    while (!done_.load()) {
      peak_ = std::max(peak_, MemoryTracker::instance().peak());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    peak_ = std::max(peak_, MemoryTracker::instance().peak());
  }

  std::atomic<bool> done_{false};
  std::size_t peak_ = 0;
  std::thread thread_;
};

}  // namespace

FactoredCoupled<double> timed_factorize(const CoupledSystem<double>& sys,
                                        const Config& cfg, double* wall_s) {
  TraceSpan span("bench", "bench.coupled.factorize");
  Timer t;
  auto h = coupled::factorize_coupled(sys, cfg);
  *wall_s = t.seconds();
  return h;
}

// ---------------------------------------------------------------------------
// factor-hmat / factor-sparse
// ---------------------------------------------------------------------------

void run_factor(const Options& opts, coupled::Strategy strategy,
                Outcome& out) {
  const index_t n = opts.smoke ? kSmokeN : 8000;
  Config cfg;
  cfg.strategy = strategy;
  cfg.eps = 1e-3;
  cfg.n_b = 2;
  cfg.num_threads = opts.threads;
  cfg.ooc_dir = opts.scratch_dir;
  // Alg. 2 at eps 1e-3 lands near 1e-4; Alg. 3 keeps a dense Schur.
  const double tol = 1e-2;

  std::optional<CoupledSystem<double>> sys;
  std::optional<Block> block;
  std::vector<double> setup_s, build_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.reset();
    block.reset();
    Timer t;
    sys.emplace(fembem::make_pipe_system<double>({.total_unknowns = n}));
    build_s.push_back(t.seconds());
    block.emplace(manufactured_block(*sys, kBlockCols, opts.seed));
    setup_s.push_back(t.seconds());
  }
  const Block builtin = builtin_block(*sys);

  // Warm-up: the first factorization in a process is the slow one.
  double warmup_s = 0;
  if (!timed_factorize(*sys, cfg, &warmup_s).ok()) {
    out.count(false, "warm-up factorization failed");
    return;
  }

  // One pass over the window: factorizations, each followed by a solve of
  // the built-in right-hand side and three solves of the seeded block.
  struct Pass {
    std::vector<FactorRecord> records;
    std::vector<double> factor_s, block_s;
    std::size_t peak_max = 0;
    double worst = 0;
    FactoredCoupled<double> last;
  };
  auto measure = [&] {
    Pass p;
    PeakWatcher watcher;
    Timer window;
    for (int it = 0; keep_going(opts, it, 3, window); ++it) {
      FactorRecord rec;
      FactoredCoupled<double> h = timed_factorize(*sys, cfg, &rec.wall_s);
      out.count(h.ok(), "factorization failed: " + h.stats().failure);
      if (!h.ok()) continue;
      rec.stats = h.stats();
      p.factor_s.push_back(rec.wall_s);
      p.records.push_back(std::move(rec));

      double err = 0;
      timed_solve(h, builtin, &err);
      p.worst = std::max(p.worst, err);
      out.count(err < tol, "built-in RHS error " + std::to_string(err));
      for (int k = 0; k < 3; ++k) {
        p.block_s.push_back(timed_solve(h, *block, &err));
        p.worst = std::max(p.worst, err);
        out.count(err < tol, "64-column block error " + std::to_string(err));
      }
      p.last = std::move(h);
    }
    p.peak_max = watcher.stop();
    return p;
  };
  Pass untraced;
  if (opts.traced) untraced = measure();
  start_tracing(opts);
  Pass p = measure();
  if (p.factor_s.empty() || p.block_s.empty()) return;

  const Metric factorize = summarize(p.factor_s, "s");
  const Metric rhs = reciprocal(summarize(p.block_s, "s"),
                                static_cast<double>(kBlockCols), "1/s");
  out.metrics["setup_s"] = setup_metric(setup_s, warmup_s);
  out.metrics["latency_ms"] = scaled(factorize, 1e3, "ms");
  out.metrics["throughput_per_s"] = rhs;
  out.metrics["peak_mib"] = single(mib(p.peak_max), "MiB");
  out.metrics["rel_error"] = single(p.worst, "1");
  out.metrics["warmup_s"] = single(warmup_s, "s");
  out.metrics["n_total"] = single(sys->total(), "count");

  if (opts.traced && !untraced.factor_s.empty()) {
    out.factorizations = std::move(p.records);
    out.layers["coupled.factorizations"] = single(p.factor_s.size(), "count");
    out.layers["bench.trace_overhead_pct"] = overhead_pct(
        factorize.value, summarize(untraced.factor_s, "s").value);
    run_layer_probes(opts, *sys, cfg, summarize(build_s, "s").value, &p.last,
                     out);
  }
}

// ---------------------------------------------------------------------------
// freq-sweep
// ---------------------------------------------------------------------------

void run_sweep(const Options& opts, Outcome& out) {
  fembem::SweepParams sp;
  sp.total_unknowns = opts.smoke ? kSmokeN : 3000;
  sp.scatterers = 1;
  const std::vector<double> omegas = {1.1,   1.125, 1.15,  1.175,
                                      1.2,   1.225, 1.25,  1.275};
  coupled::SweepOptions so;
  so.config.strategy = coupled::Strategy::kMultiSolveCompressed;
  so.config.eps = 1e-4;
  so.config.refine_tolerance = 1e-8;
  so.config.refine_iterations = 4;
  so.config.num_threads = opts.threads;
  so.config.ooc_dir = opts.scratch_dir;
  so.recycle = true;
  so.lagged_refinement = true;
  so.lagged_refine_iterations = 40;
  const double tol = 1e-6;

  std::optional<fembem::SweepFamily<double>> family;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    family.reset();
    Timer t;
    family.emplace(sp);
    setup_s.push_back(t.seconds());
  }

  // Warm-up: one factorization at the first frequency. The system is kept
  // for the layer probes.
  Timer warm;
  const CoupledSystem<double> first = family->at(omegas.front());
  const double build_s = warm.seconds();
  {
    double wall = 0;
    if (!timed_factorize(first, so.config, &wall).ok()) {
      out.count(false, "warm-up factorization failed");
      return;
    }
  }
  const double warmup_s = warm.seconds();

  // One pass over the window: whole sweeps, every frequency validated.
  struct Pass {
    std::vector<double> freq_s, sweep_s;
    double worst = 0, lagged_s = 0, refactor_s = 0;
    double lagged_attempts = 0, stalled = 0;
    int factorizations = 0, lagged = 0, refine_sweeps = 0;
    std::size_t peak = 0;
  };
  auto measure = [&] {
    Pass p;
    PeakWatcher watcher;
    Timer window;
    for (int it = 0; keep_going(opts, it, 2, window); ++it) {
      coupled::SweepDriver<double> driver(*family, so);
      coupled::SweepStats sw;
      {
        TraceSpan span("bench", "bench.sweep.run");
        Timer t;
        sw = driver.run(omegas);
        p.sweep_s.push_back(t.seconds());
      }
      out.count(sw.success, "sweep failed: " + sw.failure);
      if (!sw.success) {
        p.sweep_s.pop_back();
        continue;
      }
      p.factorizations += sw.factorizations;
      p.lagged += sw.lagged_solves;
      for (const auto& f : sw.freqs) {
        p.freq_s.push_back(f.seconds);
        p.refine_sweeps += f.refine_sweeps;
        (f.lagged ? p.lagged_s : p.refactor_s) += f.seconds;
        auto counter = [&f](const char* name) {
          const auto c = f.counters.find(name);
          return c == f.counters.end() ? 0.0 : c->second;
        };
        p.lagged_attempts += counter("sweep.lagged_solves");
        // Sweeps the stalled lagged attempt ran before the fresh solve.
        if (f.fallback_reason == "refine.stall")
          p.stalled += counter("refine.sweeps") - f.refine_sweeps;
        const bool ok = f.relative_error >= 0 && f.relative_error < tol;
        p.worst = std::max(p.worst, ok ? f.relative_error : 1e300);
        out.count(ok, "omega " + std::to_string(f.omega) + " error " +
                          std::to_string(f.relative_error));
      }
    }
    p.peak = watcher.stop();
    return p;
  };
  Pass untraced;
  if (opts.traced) untraced = measure();
  start_tracing(opts);
  const Pass p = measure();
  if (p.sweep_s.empty()) return;

  out.metrics["setup_s"] = setup_metric(setup_s, warmup_s);
  const double points = static_cast<double>(omegas.size());
  const Metric sweep_m = summarize(p.sweep_s, "s");
  out.metrics["latency_ms"] = scaled(sweep_m, 1e3, "ms");
  out.metrics["throughput_per_s"] = reciprocal(sweep_m, points, "1/s");
  out.metrics["peak_mib"] = single(mib(p.peak), "MiB");
  out.metrics["frequency_ms"] = scaled(summarize(p.freq_s, "s"), 1e3, "ms");
  out.metrics["rel_error"] = single(p.worst, "1");
  out.metrics["warmup_s"] = single(warmup_s, "s");
  out.metrics["n_total"] = single(family->total(), "count");

  if (opts.traced && !untraced.sweep_s.empty()) {
    auto& L = out.layers;
    L["coupled.factorizations"] = single(p.factorizations, "count");
    L["bench.trace_overhead_pct"] = overhead_pct(
        sweep_m.value, summarize(untraced.sweep_s, "s").value);
    L["sweep.factorizations"] = single(p.factorizations, "count");
    L["sweep.lagged_solves"] = single(p.lagged, "count");
    L["sweep.lagged_hit_ratio"] = single(
        p.lagged_attempts > 0 ? p.lagged / p.lagged_attempts : 0.0, "1");
    L["sweep.refine_sweeps"] = single(p.refine_sweeps, "count");
    L["sweep.stalled_sweeps"] = single(p.stalled, "count");
    L["sweep.lagged_s"] = single(p.lagged_s, "s");
    L["sweep.refactor_s"] = single(p.refactor_s, "s");
    run_layer_probes(opts, first, so.config, build_s, nullptr, out);
  }
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

namespace {

constexpr int kClients = 4;       // pass A; pass B: 3 hit clients + 1 miss
constexpr int kDistinctCols = 8;  // request columns cycled through
constexpr double kHitRate = 100;  // pass B arrivals per second
constexpr double kMissEvery = 1.0;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Per-client tallies, merged into the Outcome after the threads join.
struct Tally {
  long attempted = 0, failed = 0;
  std::vector<std::string> problems;
  void count(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (problems.size() < 5) problems.push_back(what);
  }
};

void merge(Outcome& out, const std::vector<Tally>& tallies) {
  for (const Tally& t : tallies) {
    out.attempted += t.attempted;
    out.failed += t.failed;
    for (const auto& p : t.problems)
      if (out.problems.size() < 20) out.problems.push_back(p);
  }
}

struct HitSample {
  double latency_ms = 0;  ///< due time to reply
  double late_ms = 0;     ///< due time to send (how late the client ran)
  double solve_ms = 0;    ///< the batched solve that carried the request
  double wait_ms = 0;     ///< server-side total minus the batched solve
  index_t batch = 1;
};

fembem::SystemParams params_of(const server::SceneSpec& s) {
  fembem::SystemParams p;
  p.total_unknowns = static_cast<index_t>(s.total_unknowns);
  p.kappa = s.kappa;
  p.sigma_real = s.sigma_real;
  p.sigma_imag = s.sigma_imag;
  p.symmetric_bem = s.symmetric != 0;
  p.extra_surface_ratio = s.extra_surface_ratio;
  return p;
}

/// Relative residual ||A x - b|| / ||b|| of one solved column.
double residual(const CoupledSystem<double>& sys,
                const std::vector<double>& b_v, const std::vector<double>& b_s,
                const std::vector<double>& x_v,
                const std::vector<double>& x_s) {
  std::vector<double> r_v(b_v.size()), r_s(b_s.size());
  sys.A_vv.spmv(1.0, x_v.data(), 0.0, r_v.data());
  sys.A_sv.spmv_trans(1.0, x_s.data(), 1.0, r_v.data());
  fembem::generator_matvec(*sys.A_ss, x_s.data(), r_s.data());
  sys.A_sv.spmv(1.0, x_v.data(), 1.0, r_s.data());
  double num = 0, den = 0;
  for (std::size_t i = 0; i < b_v.size(); ++i) {
    num += (r_v[i] - b_v[i]) * (r_v[i] - b_v[i]);
    den += b_v[i] * b_v[i];
  }
  for (std::size_t i = 0; i < b_s.size(); ++i) {
    num += (r_s[i] - b_s[i]) * (r_s[i] - b_s[i]);
    den += b_s[i] * b_s[i];
  }
  const double r = std::sqrt(num / std::max(den, 1e-300));
  return std::isfinite(r) ? r : 1e300;
}

/// The seeded serve inputs: request columns, the pass B arrival schedule
/// and the mass shift of every never-seen scene.
struct ServeInputs {
  std::vector<std::vector<double>> cols_v, cols_s;
  std::vector<double> hit_due, miss_due;
  std::vector<server::SceneSpec> miss_scenes;
};

ServeInputs serve_inputs(const CoupledSystem<double>& sys,
                         const server::SceneSpec& scene, std::uint64_t seed,
                         double pass_b_s) {
  ServeInputs in;
  Rng rng(seed);
  in.cols_v.resize(kDistinctCols);
  in.cols_s.resize(kDistinctCols);
  for (int c = 0; c < kDistinctCols; ++c) {
    in.cols_v[c].resize(static_cast<std::size_t>(sys.nv()));
    in.cols_s[c].resize(static_cast<std::size_t>(sys.ns()));
    for (double& x : in.cols_v[c]) x = rng.uniform(-1.0, 1.0);
    for (double& x : in.cols_s[c]) x = rng.uniform(-1.0, 1.0);
  }
  for (double due = 0;;) {
    due += -std::log(1.0 - rng.uniform()) / kHitRate;
    if (due >= pass_b_s) break;
    in.hit_due.push_back(due);
  }
  for (double due = 0.5 * kMissEvery; due < pass_b_s; due += kMissEvery) {
    server::SceneSpec s = scene;
    // [1.05, 2): never the resident scene's shift of exactly 1.
    s.sigma_real = 1.05 + 0.95 * rng.uniform();
    in.miss_due.push_back(due);
    in.miss_scenes.push_back(s);
  }
  return in;
}

}  // namespace

void run_serve(const Options& opts, Outcome& out) {
  server::SceneSpec scene;
  scene.total_unknowns = opts.smoke ? kSmokeN : 3000;
  server::ServeOptions so;
  so.solver.strategy = coupled::Strategy::kMultiSolve;
  so.solver.eps = 1e-4;
  so.solver.num_threads = opts.threads;
  so.solver.ooc_dir = opts.scratch_dir;
  so.spill_dir = opts.scratch_dir;
  const double pass_a_s = opts.smoke ? 1.0 : 0.3 * opts.seconds;
  const double pass_b_s = opts.smoke ? 2.0 : 0.7 * opts.seconds;

  std::optional<CoupledSystem<double>> sys;
  ServeInputs in;
  std::vector<double> setup_s;
  double build_s = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.reset();
    Timer t;
    sys.emplace(fembem::make_pipe_system<double>(params_of(scene)));
    build_s = t.seconds();
    in = serve_inputs(*sys, scene, opts.seed, pass_b_s);
    setup_s.push_back(t.seconds());
  }

  // Reference answers: every request column solved alone on a directly
  // factorized handle. The service must reproduce them bitwise. This is
  // also the process's warm-up factorization.
  Timer warm;
  double ref_wall = 0;
  const auto ref = timed_factorize(*sys, so.solver, &ref_wall);
  if (!ref.ok()) {
    out.count(false, "reference factorization failed: " + ref.stats().failure);
    return;
  }
  std::vector<std::vector<double>> ref_v = in.cols_v, ref_s = in.cols_s;
  for (int c = 0; c < kDistinctCols; ++c) {
    la::MatrixView<double> bv(ref_v[c].data(), sys->nv(), 1, sys->nv());
    la::MatrixView<double> bs(ref_s[c].data(), sys->ns(), 1, sys->ns());
    if (!ref.solve(bv, bs).success) {
      out.count(false, "reference solve failed");
      return;
    }
  }
  server::SolverService service(so);
  auto request = [&](const server::SceneSpec& s, std::vector<double>& bv,
                     std::vector<double>& bs) {
    TraceSpan span("bench", "bench.server.solve");
    return service.solve(s, bv.data(), bs.data());
  };
  {
    std::vector<double> bv = in.cols_v[0], bs = in.cols_s[0];
    if (!request(scene, bv, bs).ok) {
      out.count(false, "warm-up request failed");
      return;
    }
  }
  const double warmup_s = warm.seconds();
  auto bitwise_ok = [&](int c, const std::vector<double>& bv,
                        const std::vector<double>& bs) {
    return std::memcmp(bv.data(), ref_v[c].data(),
                       sizeof(double) * bv.size()) == 0 &&
           std::memcmp(bs.data(), ref_s[c].data(),
                       sizeof(double) * bs.size()) == 0;
  };

  // Closed loop: kClients callers that each wait for their reply. Returns
  // the requests completed per second of wall time.
  auto closed_loop = [&](double seconds) {
    std::atomic<bool> stop{false};
    std::atomic<int> next{0}, completed{0};
    std::vector<Tally> tallies(kClients);
    Timer wall;
    {
      std::vector<std::thread> clients;
      for (int w = 0; w < kClients; ++w)
        clients.emplace_back([&, w] {
          while (!stop.load()) {
            const int c = next.fetch_add(1) % kDistinctCols;
            std::vector<double> bv = in.cols_v[c], bs = in.cols_s[c];
            const auto res = request(scene, bv, bs);
            completed.fetch_add(1);
            tallies[w].count(res.ok && bitwise_ok(c, bv, bs),
                             "closed-loop reply wrong: " + res.error);
          }
        });
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      stop.store(true);
      for (auto& t : clients) t.join();
    }
    merge(out, tallies);
    return static_cast<double>(completed.load()) / wall.seconds();
  };

  double untraced_capacity = 0;
  if (opts.traced) untraced_capacity = closed_loop(pass_a_s);
  start_tracing(opts);
  const auto factorizations_before = service.counters().factorizations.load();
  PeakWatcher watcher;

  // Pass A.
  const double capacity = closed_loop(pass_a_s);

  // Pass B: open loop. Hits arrive on the seeded Poisson schedule and go
  // out through kClients - 1 client threads; one more thread sends a
  // never-seen scene every kMissEvery seconds. Latency counts from each
  // request's due time.
  std::atomic<int> next{0};
  std::vector<Tally> tallies(kClients);
  std::vector<std::vector<HitSample>> hits(kClients - 1);
  const std::size_t misses = in.miss_scenes.size();
  std::vector<double> miss_ms(misses, 0);
  std::vector<std::vector<double>> miss_v(misses), miss_s(misses);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  auto at = [&](double due) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due));
  };
  {
    std::vector<std::thread> clients;
    for (int w = 0; w < kClients - 1; ++w)
      clients.emplace_back([&, w] {
        for (;;) {
          const int r = next.fetch_add(1);
          if (r >= static_cast<int>(in.hit_due.size())) break;
          const int c = r % kDistinctCols;
          std::vector<double> bv = in.cols_v[c], bs = in.cols_s[c];
          const auto due = at(in.hit_due[static_cast<std::size_t>(r)]);
          std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          const auto res = request(scene, bv, bs);
          HitSample h;
          h.latency_ms = ms_since(due, Clock::now());
          h.late_ms = ms_since(due, sent);
          h.solve_ms = res.solve_seconds * 1e3;
          h.wait_ms = (res.total_seconds - res.solve_seconds) * 1e3;
          h.batch = res.batch_columns;
          hits[w].push_back(h);
          tallies[w].count(res.ok && res.cache_hit && bitwise_ok(c, bv, bs),
                           "open-loop hit wrong: " + res.error);
        }
      });
    clients.emplace_back([&] {
      for (std::size_t k = 0; k < misses; ++k) {
        miss_v[k] = in.cols_v[0];
        miss_s[k] = in.cols_s[0];
        const auto due = at(in.miss_due[k]);
        std::this_thread::sleep_until(due);
        const auto res = request(in.miss_scenes[k], miss_v[k], miss_s[k]);
        miss_ms[k] = ms_since(due, Clock::now());
        tallies[kClients - 1].count(res.ok && !res.cache_hit,
                                    "new-scene request failed: " + res.error);
        if (!res.ok) miss_v[k].clear();
      }
    });
    for (auto& t : clients) t.join();
  }
  const std::size_t peak = watcher.stop();
  merge(out, tallies);

  // New-scene answers: the relative residual against a locally rebuilt
  // copy of each scene (outside every timed window).
  double worst_residual = 0;
  for (std::size_t k = 0; k < misses; ++k) {
    if (miss_v[k].empty()) continue;
    const auto msys =
        fembem::make_pipe_system<double>(params_of(in.miss_scenes[k]));
    const double r =
        residual(msys, in.cols_v[0], in.cols_s[0], miss_v[k], miss_s[k]);
    worst_residual = std::max(worst_residual, r);
    out.count(r < 1e-3, "new-scene residual " + std::to_string(r));
  }

  std::vector<double> hit_ms, late_ms, solve_ms, wait_ms;
  double batch_sum = 0;
  for (const auto& v : hits)
    for (const auto& h : v) {
      hit_ms.push_back(h.latency_ms);
      late_ms.push_back(h.late_ms);
      solve_ms.push_back(h.solve_ms);
      wait_ms.push_back(h.wait_ms);
      batch_sum += static_cast<double>(h.batch);
    }
  if (hit_ms.empty() || capacity <= 0) return;

  // A percentile without 10 samples beyond it is reported as null.
  auto tail = [](const std::vector<double>& v, double q) {
    const auto p = percentile(v, q);
    Metric m = single(p ? p->value : NAN, "ms");
    m.n = v.size();
    return m;
  };
  out.metrics["setup_s"] = setup_metric(setup_s, warmup_s);
  out.metrics["latency_ms"] = summarize(hit_ms, "ms");
  out.metrics["throughput_per_s"] = single(capacity, "1/s");
  out.metrics["peak_mib"] = single(mib(peak), "MiB");
  out.metrics["serve_hit_p99_ms"] = tail(hit_ms, 0.99);
  out.metrics["serve_miss_p50_ms"] = summarize(miss_ms, "ms");
  out.metrics["serve_miss_residual"] = single(worst_residual, "1");
  out.metrics["warmup_s"] = single(warmup_s, "s");
  out.metrics["n_total"] = single(sys->total(), "count");
  out.metrics["bench.gen_late_p99_ms"] = tail(late_ms, 0.99);

  if (opts.traced) {
    const server::ServiceCounters& c = service.counters();
    const double requests = static_cast<double>(c.requests.load());
    const double batches = static_cast<double>(c.coalesced_batches.load());
    auto& L = out.layers;
    L["coupled.factorizations"] = single(
        static_cast<double>(c.factorizations.load() - factorizations_before),
        "count");
    L["bench.trace_overhead_pct"] = overhead_pct(untraced_capacity, capacity);
    L["server.hit_ratio"] = single(
        requests > 0 ? static_cast<double>(c.cache_hits.load()) / requests
                     : 0.0,
        "1");
    L["server.batch_columns_mean"] = single(
        batches > 0 ? static_cast<double>(c.coalesced_columns.load()) / batches
                    : batch_sum / static_cast<double>(hit_ms.size()),
        "count");
    L["server.factorizations"] =
        single(static_cast<double>(c.factorizations.load()), "count");
    L["server.evictions"] =
        single(static_cast<double>(c.evictions.load()), "count");
    L["server.solve_ms"] = summarize(solve_ms, "ms");
    L["server.wait_p99_ms"] = tail(wait_ms, 0.99);
    run_layer_probes(opts, *sys, so.solver, build_s, nullptr, out);
  }
}

}  // namespace cs::suite
