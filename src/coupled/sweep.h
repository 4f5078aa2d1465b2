// Frequency-sweep engine with factorization recycling. Solves a shifted
// family A(omega_1..omega_k) built over ONE scene (fembem::SweepFamily) and
// amortizes everything that is legal to share between neighboring
// frequencies, in escalating tiers (DESIGN.md §15):
//
//  tier 1 — structure: the interior symbolic analysis (ordering,
//    elimination tree, supernode partition) and the geometric cluster tree
//    / H-matrix block skeleton depend only on the sparsity pattern and the
//    point geometry, both frequency-independent in a shifted family. They
//    are computed at the first frequency and replayed afterwards.
//  tier 2 — ranks: every ACA/recompression call is seeded with the
//    converged rank of the same block at the previous frequency
//    (capacity + capped-run hints; bitwise-identical results, see
//    hmat::BlockSkeleton).
//  tier 3 — factors: before re-factorizing at omega_{k+1}, the retained
//    FactoredCoupled of omega_k is tried as a preconditioner inside the
//    iterative-refinement loop (frequency-lagged refinement,
//    FactoredCoupled::solve_lagged). Only when that stalls does the sweep
//    fall through to a fresh factorization.
//
// All reuse is keyed and validated: a mismatch (changed pattern, changed
// options, a degrade-and-retry that reshapes the problem) silently falls
// back to the cold path, never to a wrong answer.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "coupled/coupled.h"
#include "fembem/shifted.h"
#include "hmat/cluster.h"
#include "hmat/hmatrix.h"
#include "sparsedirect/multifrontal.h"

namespace cs::coupled {

/// Cross-frequency reuse state, threaded through factorize_coupled by the
/// SweepDriver (or any caller solving a shifted family by hand). One
/// context serves one family; handing it matrices of a different pattern
/// is safe (validation falls back to cold analysis) but pointless.
///
/// Thread-safety: the maps are mutex-guarded so the block-parallel
/// multi-factorization strategy can store/find per-block analyses from
/// concurrent factorization jobs. Returned pointers/references stay valid
/// for the life of the context (std::map nodes are stable).
class SweepContext {
 public:
  SweepContext() = default;
  SweepContext(const SweepContext&) = delete;
  SweepContext& operator=(const SweepContext&) = delete;

  /// The shared geometric cluster tree. Reused when `points`/`leaf` match
  /// what the stored tree was built from (size, leaf and bitwise first/
  /// last coordinates — the family guarantees the geometry is literally
  /// the same object every frequency); rebuilt and cached otherwise.
  std::shared_ptr<const hmat::ClusterTree> acquire_tree(
      const std::vector<hmat::Point3>& points, index_t leaf) {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool match =
        tree_ && tree_leaf_ == leaf && tree_points_ == points.size() &&
        (points.empty() ||
         (same_point(tree_first_, points.front()) &&
          same_point(tree_last_, points.back())));
    if (!match) {
      tree_ = std::make_shared<const hmat::ClusterTree>(points, leaf);
      tree_leaf_ = leaf;
      tree_points_ = points.size();
      if (!points.empty()) {
        tree_first_ = points.front();
        tree_last_ = points.back();
      }
    }
    return tree_;
  }

  /// Stored interior symbolic analysis for reuse key `key` ("vv", "K",
  /// "W:<bi>:<bj>"), or nullptr the first time around. The pointer stays
  /// valid until the context dies.
  const sparsedirect::SparseAnalysis* find_analysis(
      const std::string& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = analyses_.find(key);
    return it == analyses_.end() ? nullptr : &it->second;
  }

  void store_analysis(const std::string& key,
                      sparsedirect::SparseAnalysis&& analysis) {
    std::lock_guard<std::mutex> lock(mutex_);
    analyses_[key] = std::move(analysis);
  }

  /// H-matrix block skeleton (structure + per-leaf rank hints) for reuse
  /// key `key`, created empty on first use. The reference stays valid for
  /// the life of the context; the warm-assembly path mutates it serially
  /// (one Schur assembly per factorization attempt).
  hmat::BlockSkeleton& skeleton(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    return skeletons_[key];
  }

  /// Number of cached analyses/skeletons (tests; observability).
  std::size_t analyses_cached() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return analyses_.size();
  }
  std::size_t skeletons_cached() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return skeletons_.size();
  }

 private:
  static bool same_point(const hmat::Point3& a, const hmat::Point3& b) {
    return a.x == b.x && a.y == b.y && a.z == b.z;
  }

  mutable std::mutex mutex_;
  std::shared_ptr<const hmat::ClusterTree> tree_;
  index_t tree_leaf_ = -1;
  std::size_t tree_points_ = 0;
  hmat::Point3 tree_first_{}, tree_last_{};
  std::map<std::string, sparsedirect::SparseAnalysis> analyses_;
  std::map<std::string, hmat::BlockSkeleton> skeletons_;
};

/// Sweep policy. `config` shapes every factorization of the sweep exactly
/// as it shapes a single solve_coupled call (strategy, compression,
/// refinement, resilience...).
struct SweepOptions {
  Config config;

  /// Master switch for all three recycling tiers. Off = the naive sweep:
  /// every frequency is an independent factorize + solve (the baseline
  /// the bench driver compares against).
  bool recycle = true;

  /// Tier 3 switch: try the previous frequency's factors as a
  /// preconditioner (frequency-lagged refinement) before refactorizing.
  /// Only meaningful when recycle is on, and requires
  /// config.refine_tolerance > 0 (a lagged solve must demonstrate
  /// convergence to count).
  bool lagged_refinement = true;

  /// Refinement-sweep budget floor while recycling: the lagged operator
  /// differs from the target by O(|omega^2 - omega'^2|) * M, so it
  /// contracts slowly and needs far more sweeps than refinement on fresh
  /// factors — and a sweep costs ~10x less than a refactorization, so a
  /// generous budget is cheap insurance. The driver raises
  /// config.refine_iterations to at least this value — harmless for fresh
  /// solves, which early-exit on refine_tolerance.
  int lagged_refine_iterations = 24;
};

/// Per-frequency outcome of a sweep.
struct SweepFrequencyStats {
  double omega = 0;
  bool refactorized = false;  ///< a fresh factorization ran here
  bool lagged = false;        ///< served by frequency-lagged refinement
  /// Why lagged refinement was not used / did not stick at this frequency
  /// ("" when lagged succeeded or was not attempted): "disabled",
  /// "no_factors", or the error site of the stalled attempt
  /// (e.g. "refine.stall").
  std::string fallback_reason;
  double seconds = 0;          ///< wall clock of this frequency
  double relative_error = -1;  ///< vs the family's manufactured reference
  int refine_sweeps = 0;
  /// Per-frequency Metrics delta (aca.iterations, rank-hint hits/misses,
  /// analysis/structure reuses...).
  std::map<std::string, double> counters;
};

/// Whole-sweep outcome.
struct SweepStats {
  bool success = false;
  std::string failure;       ///< first hard failure ("" on success)
  int factorizations = 0;    ///< fresh factorizations performed
  int lagged_solves = 0;     ///< frequencies served by lagged refinement
  double total_seconds = 0;
  double seconds_per_frequency = 0;
  std::vector<SweepFrequencyStats> freqs;
};

/// Drives one sweep over `family` at the given frequencies. Holds the
/// most recent factorization (and the system it refines against) between
/// frequencies; owns the SweepContext for the structural tiers.
template <class T>
class SweepDriver {
 public:
  explicit SweepDriver(const fembem::SweepFamily<T>& family,
                       const SweepOptions& options)
      : family_(family), options_(options) {}

  /// Solve the family at each frequency in order. Never throws: hard
  /// failures (a fresh factorization failing even after the resilient
  /// retry ladder) end the sweep with stats.success = false.
  SweepStats run(const std::vector<double>& omegas);

  /// The reuse context (tests; inspection after run()).
  SweepContext& context() { return context_; }

 private:
  const fembem::SweepFamily<T>& family_;
  SweepOptions options_;
  SweepContext context_;
};

}  // namespace cs::coupled
