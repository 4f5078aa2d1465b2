// Memory-aware strategy planning.
//
// The paper's conclusion is that the best coupled algorithm "strongly
// depends on the number of unknowns and the amount of memory available":
// multi-factorization wins in time when its blocks fit, multi-solve
// (compressed) wins in reachable problem size. The Planner turns that
// observation into an API: from one *symbolic-only* sparse analysis (no
// numeric factorization) it predicts the peak tracked footprint of every
// strategy, filters by the available budget and ranks the feasible ones by
// an expected-time score.
//
// The predictions are first-order models over the dominant allocations
// (panels, Schur storage, factors with duplication/compression constants);
// they are validated against measured peaks in tests/planner_test.cpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/trace.h"
#include "coupled/coupled.h"
#include "sparsedirect/multifrontal.h"

namespace cs::coupled {

struct PlanEntry {
  Strategy strategy;
  std::size_t predicted_peak_bytes = 0;
  double time_score = 0;  ///< relative cost estimate (lower = faster)
  bool fits = false;
};

/// Sample schedule of kMultiSolveRandomized's adaptive range finder: the
/// first sketch has kRandInitialRank columns, doubled until the posterior
/// probe meets eps, and never more than kRandMaxRankRatio * n_BEM.
inline constexpr index_t kRandInitialRank = 64;
inline constexpr double kRandMaxRankRatio = 0.5;

struct PlannerInputs {
  index_t nv = 0;
  index_t ns = 0;
  offset_t factor_entries = 0;  ///< symbolic dense-factor entry count
  std::size_t system_bytes = 0;  ///< storage of the input blocks
  std::size_t scalar_bytes = sizeof(double);
};

/// Gather the planner inputs from a system (runs one symbolic analysis).
/// scalar_bytes is the element size of the *factor storage*, so a
/// Config::factor_precision == kSingle run halves every factor, panel and
/// Schur term of the predictions (the system blocks stay in the input
/// scalar and are counted separately via system_bytes).
template <class T>
PlannerInputs planner_inputs(const fembem::CoupledSystem<T>& sys,
                             const Config& cfg) {
  PlannerInputs in;
  in.nv = sys.nv();
  in.ns = sys.ns();
  in.scalar_bytes = cfg.factor_precision == Precision::kSingle
                        ? sizeof(single_of_t<T>)
                        : sizeof(T);
  sparsedirect::MultifrontalSolver<T> mf;
  sparsedirect::SolverOptions so;
  so.ordering = cfg.ordering;
  mf.analyze_only(sys.A_vv, so);
  in.factor_entries = mf.stats().factor_entries_dense;
  in.system_bytes = sys.A_vv.size_bytes() + sys.A_sv.size_bytes();
  return in;
}

/// Transient footprint of the one live compressed multi-solve panel: the
/// nv x n_c sparse-solve panel Y plus the ns x max(n_S, n_c) Schur panel Z.
inline std::size_t multisolve_panel_bytes(index_t nv, index_t ns,
                                          const Config& cfg,
                                          std::size_t scalar_bytes) {
  const double b = static_cast<double>(scalar_bytes);
  const double panel = static_cast<double>(std::max(cfg.n_S, cfg.n_c));
  return static_cast<std::size_t>(static_cast<double>(nv) * cfg.n_c * b +
                                  static_cast<double>(ns) * panel * b);
}

/// Tracked transient footprint of one batched solution phase
/// (FactoredCoupled::solve with an nv x nrhs + ns x nrhs RHS block): the
/// interior solve block, the Schur right-hand side and the
/// back-substitution block live concurrently (3 nv + 2 ns scalars per
/// column); an iterative-refinement sweep holds a residual + correction
/// block pair on top. Batch drivers (bench_solve) use this to size nrhs
/// against the budget headroom left by the factorization.
inline std::size_t solve_batch_bytes(index_t nv, index_t ns, index_t nrhs,
                                     std::size_t scalar_bytes, bool refine) {
  const double b = static_cast<double>(scalar_bytes);
  double per_col = 3.0 * static_cast<double>(nv) + 2.0 * static_cast<double>(ns);
  if (refine) per_col += 3.0 * static_cast<double>(nv + ns);
  return static_cast<std::size_t>(per_col * static_cast<double>(nrhs) * b);
}

/// Transient footprint of one multi-factorization (bi, bj) job: the
/// duplicated (unsymmetric LU) factors of W plus the retrieved p x p Schur
/// block and its internal copy.
inline std::size_t multifacto_job_bytes(const PlannerInputs& in,
                                        const Config& cfg) {
  const double b = static_cast<double>(in.scalar_bytes);
  const double f = static_cast<double>(in.factor_entries) * b;
  const double f_work = 1.6 * f;  // factors + multifrontal transient
  const double f_blr = cfg.sparse_compression ? 0.8 * f_work : f_work;
  const double p =
      static_cast<double>(in.ns) / std::max<index_t>(1, cfg.n_b);
  return static_cast<std::size_t>(2.1 * f_blr + 2.0 * p * p * b);
}

/// How many units of `unit_bytes` transient footprint may be in flight at
/// once: always at least 1 (serial progress must stay admissible --
/// genuine exhaustion is detected by the tracked allocations inside the
/// unit and reported as BudgetExceeded, exactly as in a serial run), at
/// most `want`, and with one unit of slack kept below the budget so
/// concurrency degrades to 1 near the limit instead of tipping a run that
/// would have fit serially.
inline int admissible_inflight(std::size_t unit_bytes,
                               std::size_t budget_bytes,
                               std::size_t current_bytes, int want) {
  want = std::max(want, 1);
  if (budget_bytes == 0 || unit_bytes == 0) return want;
  if (current_bytes >= budget_bytes) return 1;
  const std::size_t units = (budget_bytes - current_bytes) / unit_bytes;
  if (units <= 2) return 1;
  return static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(want), units - 1));
}

/// (bi, bj) jobs multi-factorization keeps in flight at once: one per
/// worker thread, at most n_b^2, and no more than the budget headroom
/// above `current_bytes` admits (admissible_inflight). Returns 1 when the
/// jobs run serially.
inline int multifacto_workers(std::size_t job_bytes, const Config& cfg,
                              std::size_t current_bytes) {
  const offset_t nb = std::max<index_t>(1, cfg.n_b);
  const int threads = resolve_threads(cfg.num_threads);
  if (threads <= 1 || nb < 2) return 1;
  return admissible_inflight(
      job_bytes, cfg.memory_budget, current_bytes,
      static_cast<int>(std::min<offset_t>(threads, nb * nb)));
}

/// Runtime admission for block-parallel multi-factorization: a worker
/// acquires a slot before allocating its job's transients. A job is
/// admitted when it is the only active one (serial progress is always
/// allowed) or when the tracked usage plus the predicted per-job footprint
/// stays under the budget; otherwise the worker waits for headroom, so
/// concurrency degrades gracefully instead of throwing.
class AdmissionController {
 public:
  AdmissionController(std::size_t unit_bytes, std::size_t budget_bytes)
      : unit_(unit_bytes), budget_(budget_bytes) {}

  void acquire() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (active_ > 0 && !fits()) {
      // Contended path: record how long this worker sat waiting for
      // budget headroom (span on the timeline, totals in the counters).
      TraceSpan span("admission", "admission.wait");
      Metrics::instance().add(Metric::kAdmissionWaits, 1);
      Timer waited;
      while (active_ > 0 && !fits()) {
        // Woken by release(); the timeout re-checks the tracker, whose
        // usage also drops while concurrent jobs free transients
        // mid-flight.
        cv_.wait_for(lock, std::chrono::milliseconds(20));
      }
      Metrics::instance().add(Metric::kAdmissionWaitSec, waited.seconds());
    }
    ++active_;
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
    }
    cv_.notify_all();
  }

 private:
  bool fits() const {
    if (budget_ == 0) return true;
    return MemoryTracker::instance().current() + unit_ <= budget_;
  }

  std::size_t unit_;
  std::size_t budget_;
  int active_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// Predict the peak tracked bytes of one strategy. Empirical constants:
/// BLR keeps ~70% of the factor entries at eps=1e-3 on 3D meshes; an
/// H-compressed Schur keeps ~25-40% of the dense block at this scale; the
/// multifrontal transient (fronts + contribution stack) adds ~60% of the
/// factor size; LU (multi-factorization) duplicates factor storage, and
/// every concurrently running multi-factorization job holds its own.
inline std::size_t predict_peak(Strategy s, const PlannerInputs& in,
                                const Config& cfg) {
  const double b = static_cast<double>(in.scalar_bytes);
  const double nv = in.nv, ns = in.ns;
  const double f = static_cast<double>(in.factor_entries) * b;
  const double f_work = 1.6 * f;  // factors + multifrontal transient
  const double f_blr = cfg.sparse_compression ? 0.8 * f_work : f_work;
  const double S_dense = ns * ns * b;
  const double S_h = 0.35 * S_dense;  // H-matrix Schur at eps ~ 1e-3
  const double base = static_cast<double>(in.system_bytes) +
                      2.5 * (nv + ns) * b;  // vectors/permutations

  double peak = 0;
  switch (s) {
    case Strategy::kBaselineCoupling:
      peak = base + f_blr + nv * ns * b + S_dense;
      break;
    case Strategy::kAdvancedCoupling:
      // Internal root front + user Schur array (the API's 2x cost).
      peak = base + f_blr + 2.0 * S_dense;
      break;
    case Strategy::kMultiSolve:
      peak = base + f_blr + S_dense + nv * cfg.n_c * b;
      break;
    case Strategy::kMultiSolveCompressed:
      peak = base + f_blr + S_h +
             static_cast<double>(
                 multisolve_panel_bytes(in.nv, in.ns, cfg, in.scalar_bytes));
      break;
    case Strategy::kMultiSolveRandomized:
      peak = base + f_blr + S_h +
             4.0 * ns *
                 std::max<double>(kRandInitialRank, kRandMaxRankRatio * ns) *
                 b;
      break;
    case Strategy::kMultiFactorization:
    case Strategy::kMultiFactorizationCompressed: {
      const double S = s == Strategy::kMultiFactorization ? S_dense : S_h;
      const std::size_t job = multifacto_job_bytes(in, cfg);
      const int workers =
          multifacto_workers(job, cfg, static_cast<std::size_t>(base + S));
      peak = base + S + static_cast<double>(workers) * job;
      break;
    }
  }
  return static_cast<std::size_t>(peak);
}

/// Relative time score (arbitrary units; lower = expected faster).
inline double predict_time_score(Strategy s, const PlannerInputs& in,
                                 const Config& cfg) {
  const double nv = in.nv, ns = in.ns;
  const double f = static_cast<double>(in.factor_entries);
  const double factor_flops = f * std::sqrt(f / std::max(1.0, nv));
  const double solve_flops = 2.0 * f * ns;
  const double dense_factor = ns * ns * ns / 3.0;
  const double h_overhead = 3.0;  // recompression multiplier

  switch (s) {
    case Strategy::kBaselineCoupling:
    case Strategy::kMultiSolve:
      return factor_flops + solve_flops + dense_factor;
    case Strategy::kMultiSolveCompressed:
      return factor_flops + solve_flops * 1.3 +
             h_overhead * 0.35 * dense_factor;
    case Strategy::kMultiSolveRandomized:
      return factor_flops +
             2.0 * f * std::min<double>(ns, kRandMaxRankRatio * ns) +
             h_overhead * 0.35 * dense_factor;
    case Strategy::kAdvancedCoupling:
      return factor_flops + ns * ns * std::sqrt(f / std::max(1.0, nv)) +
             dense_factor;
    case Strategy::kMultiFactorization:
      return cfg.n_b * cfg.n_b * 2.0 * factor_flops + dense_factor;
    case Strategy::kMultiFactorizationCompressed:
      return cfg.n_b * cfg.n_b * 2.0 * factor_flops +
             h_overhead * 0.35 * dense_factor;
  }
  return 0;
}

/// Rank all strategies for the given inputs and budget: feasible ones
/// first, by ascending time score; infeasible ones after, by ascending
/// predicted peak.
inline std::vector<PlanEntry> plan(const PlannerInputs& in, const Config& cfg,
                                   std::size_t budget_bytes) {
  std::vector<PlanEntry> entries;
  for (Strategy s : kAllStrategies) {
    PlanEntry e;
    e.strategy = s;
    e.predicted_peak_bytes = predict_peak(s, in, cfg);
    e.time_score = predict_time_score(s, in, cfg);
    e.fits = budget_bytes == 0 || e.predicted_peak_bytes <= budget_bytes;
    entries.push_back(e);
  }
  std::sort(entries.begin(), entries.end(),
            [](const PlanEntry& a, const PlanEntry& b) {
              if (a.fits != b.fits) return a.fits;
              if (a.fits) return a.time_score < b.time_score;
              return a.predicted_peak_bytes < b.predicted_peak_bytes;
            });
  return entries;
}

}  // namespace cs::coupled
