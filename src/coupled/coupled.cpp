#include "coupled/coupled.h"

#include <atomic>
#include <cmath>
#include <complex>
#include <functional>
#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/serialize.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/trace.h"
#include "coupled/planner.h"
#include "coupled/sweep.h"
#include "fembem/fingerprint.h"
#include "dense/dense_solver.h"
#include "hmat/hmatrix.h"
#include "sparsedirect/multifrontal.h"

namespace cs::coupled {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kBaselineCoupling: return "baseline-coupling";
    case Strategy::kAdvancedCoupling: return "advanced-coupling";
    case Strategy::kMultiSolve: return "multi-solve";
    case Strategy::kMultiSolveCompressed: return "multi-solve-compressed";
    case Strategy::kMultiFactorization: return "multi-factorization";
    case Strategy::kMultiFactorizationCompressed:
      return "multi-factorization-compressed";
    case Strategy::kMultiSolveRandomized:
      return "multi-solve-randomized";
  }
  return "?";
}

std::optional<Strategy> strategy_from_name(std::string_view name) {
  for (Strategy s : kAllStrategies)
    if (name == strategy_name(s)) return s;
  return std::nullopt;
}

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kDouble: return "double";
    case Precision::kSingle: return "single";
  }
  return "?";
}

std::string validate_config(const Config& c) {
  // Blocking parameters are validated for every strategy (the resilient
  // driver may halve/double them, and a nonsensical value should fail fast
  // rather than survive until a strategy switch), but only the strategies
  // that consume them impose cross-field constraints:
  //   * n_c drives the multi-solve family and the slab width of the
  //     advanced coupling's A_ss materialization;
  //   * n_S only matters for kMultiSolveCompressed (panel = max(n_S, n_c));
  //   * n_b only matters for the multi-factorization pair;
  //   * kMultiSolveRandomized ignores n_c/n_S/n_b entirely — its blocking
  //     is the adaptive sample size (kRandInitialRank, doubled until the
  //     posterior probe passes, capped at kRandMaxRankRatio * n_BEM).
  if (c.n_c < 1) return "n_c must be >= 1";
  if (c.n_S < 1) return "n_S must be >= 1";
  if (c.n_b < 1) return "n_b must be >= 1";
  if (c.strategy == Strategy::kMultiSolveCompressed && c.n_S < c.n_c)
    return "n_S must be >= n_c for the compressed multi-solve";
  if (!(c.eps > 0)) return "eps must be > 0";
  if (!(c.eta > 0)) return "eta must be > 0";
  if (c.hmat_leaf < 2) return "hmat_leaf must be >= 2";
  if (c.refine_iterations < 0) return "refine_iterations must be >= 0";
  if (c.refine_tolerance < 0) return "refine_tolerance must be >= 0";
  // Mixed precision relies on the double-precision refinement sweeps to
  // recover the ~1e-6 accuracy of the single-precision factors; without
  // them the solve would silently return single-precision answers.
  if (c.factor_precision == Precision::kSingle && c.refine_iterations == 0)
    return "factor_precision=single requires refine_iterations >= 1 "
           "(double-precision iterative refinement recovers the accuracy "
           "lost to single-precision factors)";
  if (c.num_threads < 0) return "num_threads must be >= 0";
  if (c.out_of_core) {
    // Probe the spill directory now: an unusable ooc_dir must reject the
    // config up front (a daemon fails at startup), not surface as an
    // "ooc.open" IoError minutes into the factorization at first spill.
    // The "ooc_dir: " prefix lets config_error() classify this as kIo.
    if (c.ooc_dir.empty())
      return "ooc_dir: must be non-empty when out_of_core is on";
    const std::string reason = probe_writable_dir(c.ooc_dir);
    if (!reason.empty()) return "ooc_dir: '" + c.ooc_dir + "' " + reason;
  }
  return FailpointRegistry::check(c.failpoints);
}

namespace {

/// Extra attempts the degrade-and-retry driver may run after the first.
constexpr int kMaxRecoveryAttempts = 8;
/// Period of the memory-timeline sampler while the process Tracer is on.
constexpr int kTraceSampleUs = 1000;

/// Map a validate_config complaint to a structured error: filesystem
/// problems (the "ooc_dir: " prefix) are kIo at site "ooc.dir" so callers
/// and the recovery ladder see the same taxonomy as a spill-time failure;
/// everything else is a plain kInternal config error.
SolveError config_error(const std::string& problem) {
  constexpr const char* kDirPrefix = "ooc_dir: ";
  if (problem.rfind(kDirPrefix, 0) == 0)
    return SolveError{ErrorCode::kIo, "ooc.dir",
                      problem.substr(std::string(kDirPrefix).size())};
  return SolveError{ErrorCode::kInternal, "config", problem};
}

}  // namespace

namespace detail {

/// The factors of one precision bank: the interior multifrontal factors
/// and exactly one Schur factorization, dense or H-matrix.
template <class ST>
struct Factors {
  using Scalar = ST;
  sparsedirect::MultifrontalSolver<ST> interior;
  std::variant<dense::DenseSolver<ST>, hmat::HMatrix<ST>> schur;
};

/// Everything FactoredCoupled keeps alive between solves. The strategy
/// runners fill this in as they finish: the factors, the surface cluster
/// tree (whose permutation maps caller <-> tree coordinates) and the
/// coupling block in tree row order.
template <class T>
struct FactoredImpl {
  const fembem::CoupledSystem<T>* sys = nullptr;  ///< borrowed; outlives us
  Config cfg;         ///< effective config after degrade-and-retry
  SolveStats fstats;  ///< factorization-run stats (nrhs == 0)
  bool ok = false;

  /// Shared (not owned exclusively) when a sweep's SweepContext handed
  /// out its cached tree: the handle must survive the context and vice
  /// versa, and a const tree is safely shared between both.
  std::shared_ptr<const hmat::ClusterTree> tree;
  sparse::Csr<T> A_sv_tree;  ///< coupling rows permuted to tree order

  /// The factors live in exactly one precision bank: input precision T, or
  /// single_of_t<T> when the strategy ran with Config::factor_precision ==
  /// kSingle (monostate until a run or a load stores them). The solve
  /// wrappers below convert each right-hand-side block to factor precision
  /// around the triangular solves, so solve_batch (and its
  /// double-precision refinement operators) is precision-agnostic.
  std::variant<std::monostate, Factors<T>, Factors<single_of_t<T>>> factors;

  /// True when the factors are single_of_t<T> (mixed precision).
  bool mixed() const {
    return std::holds_alternative<Factors<single_of_t<T>>>(factors);
  }

  /// fn(bank) on the live precision bank; an ok() handle always has one.
  template <class Fn>
  void with_bank(const Fn& fn) const {
    std::visit(
        [&](const auto& bank) {
          if constexpr (std::is_same_v<std::decay_t<decltype(bank)>,
                                       std::monostate>) {
            throw std::logic_error("coupled: no factors stored");
          } else {
            fn(bank);
          }
        },
        factors);
  }

  /// In-place interior solve A_vv X = B.
  void interior_solve(la::MatrixView<T> B) const {
    solve_in_bank(B, [](const auto& bank, auto X) { bank.interior.solve(X); });
  }

  /// In-place S X = B in tree coordinates.
  void schur_solve(la::MatrixView<T> B) const {
    solve_in_bank(B, [](const auto& bank, auto X) {
      std::visit([&](const auto& s) { s.solve(X); }, bank.schur);
    });
  }

  /// Drop whatever a failed attempt may have left behind. Strategy
  /// runners only store factors after everything succeeded, but a retry
  /// must never see state from a previous attempt.
  void reset_factors() {
    ok = false;
    tree.reset();
    A_sv_tree = sparse::Csr<T>();
    factors = std::monostate{};
  }

 private:
  /// op(bank, X) with X = B in the bank's factor precision.
  template <class Op>
  void solve_in_bank(la::MatrixView<T> B, const Op& op) const {
    with_bank([&](const auto& bank) {
      using ST = typename std::decay_t<decltype(bank)>::Scalar;
      if constexpr (std::is_same_v<ST, T>) {
        op(bank, B);
      } else {
        la::Matrix<ST> W = la::converted<ST>(la::ConstMatrixView<T>(B));
        op(bank, W.view());
        la::convert_into<T, ST>(la::ConstMatrixView<ST>(W.view()), B);
      }
    });
  }
};

}  // namespace detail

namespace {

using fembem::CoupledSystem;
using hmat::ClusterTree;
using hmat::HMatrix;
using hmat::HOptions;
using la::Matrix;
using la::MatrixView;
using sparsedirect::MultifrontalSolver;
using sparsedirect::SolverOptions;

/// One timed scope: an entry in SolveStats::phases (or ::stages) plus a
/// trace span of the same name in category "phase" (or "stage"), so the
/// structured report and the visual timeline always agree on the taxonomy.
class Timed {
 public:
  static Timed phase(SolveStats& stats, const char* name) {
    return Timed(stats.phases, "phase", name);
  }
  static Timed stage(SolveStats& stats, const char* name) {
    return Timed(stats.stages, "stage", name);
  }

  TraceSpan& span() { return span_; }

 private:
  Timed(PhaseTimes& sink, const char* category, const char* name)
      : phase_(sink, name), span_(category, name) {}

  ScopedPhase phase_;
  TraceSpan span_;
};

/// An injected BudgetExceeded for a rows x cols block of `scalar_bytes`
/// entries when failpoint `site` fires.
void budget_failpoint(const char* site, index_t rows, index_t cols,
                      std::size_t scalar_bytes) {
  if (failpoint(site))
    throw BudgetExceeded(static_cast<std::size_t>(rows) *
                             static_cast<std::size_t>(cols) * scalar_bytes,
                         MemoryTracker::instance().current(),
                         MemoryTracker::instance().budget());
}

/// fn(ST{}) with ST the factor-storage scalar `p` selects for input
/// scalar T: T itself, or single_of_t<T> for a mixed-precision run.
template <class T, class Fn>
decltype(auto) with_factor_scalar(Precision p, const Fn& fn) {
  if (p == Precision::kSingle) return fn(single_of_t<T>{});
  return fn(T{});
}

/// Kernel generator re-indexed to surface cluster-tree coordinates.
template <class T>
class PermutedGenerator final : public hmat::MatrixGenerator<T> {
 public:
  PermutedGenerator(const hmat::MatrixGenerator<T>& base,
                    const std::vector<index_t>& original_of_tree)
      : base_(base), orig_(original_of_tree) {}
  index_t rows() const override { return base_.rows(); }
  index_t cols() const override { return base_.cols(); }
  T entry(index_t i, index_t j) const override {
    return base_.entry(orig_[static_cast<std::size_t>(i)],
                       orig_[static_cast<std::size_t>(j)]);
  }

 private:
  const hmat::MatrixGenerator<T>& base_;
  const std::vector<index_t>& orig_;
};

HOptions h_options(const Config& cfg) {
  HOptions ho;
  ho.eps = cfg.eps;
  ho.eta = cfg.eta;
  return ho;
}

/// Numerical-method fallbacks applied by the degrade-and-retry driver
/// that have no Config field of their own: once a method breaks down the
/// retry runs with the corresponding flag cleared.
struct Degrade {
  bool sparse_ldlt_ok = true;  ///< false: factor sparse blocks with LU
  bool dense_ldlt_ok = true;   ///< false: factor the dense Schur with LU
  bool hmat_ldlt_ok = true;    ///< false: factor the H-matrix Schur with H-LU
};

/// Shared context of one factorization attempt, parameterized on the input
/// scalar T and the factor-storage scalar ST (== T for a full-precision
/// run, single_of_t<T> for a mixed-precision one). The ST-typed operator
/// views below feed the strategy runners, which do all their numeric work
/// — sparse factorization, Schur assembly/panels, H-matrix compression,
/// dense factorization — in ST; the T-typed A_sv_tree is what moves into
/// FactoredImpl for the (always input-precision) solution and refinement
/// phase. The strategy runner fills `out` with the factors it produced;
/// run_strategy moves the shared pieces (cluster tree, tree-ordered
/// coupling block) in afterwards.
template <class T, class ST>
struct Run {
  static constexpr bool kMixed = !std::is_same_v<ST, T>;

  const CoupledSystem<T>& sys;
  const Config& cfg;
  const Degrade& deg;
  SolveStats& stats;
  detail::FactoredImpl<T>& out;
  SweepContext* sweep;         // cross-frequency reuse (may be null)
  // Surface dof clustering; shared with the SweepContext when sweeping
  // (declared after `sweep` so the ctor init list can consult it).
  std::shared_ptr<const ClusterTree> tree;
  sparse::Csr<T> A_sv_tree;    // coupling rows in tree order (input scalar)

  // Factor-precision operator views. When ST == T these point straight at
  // the system / A_sv_tree; in mixed mode they own converted copies (the
  // sparse blocks are small against the factors they produce).
  sparse::Csr<ST> A_vv_store, A_sv_store;
  const sparse::Csr<ST>* A_vv_st = nullptr;
  const sparse::Csr<ST>* A_sv_st = nullptr;
  std::optional<hmat::CastGenerator<ST, T>> cast_ss;
  PermutedGenerator<ST> gen_tree;

  Run(const CoupledSystem<T>& s, const Config& c, const Degrade& d,
      SolveStats& st, detail::FactoredImpl<T>& o, SweepContext* sw)
      : sys(s),
        cfg(c),
        deg(d),
        stats(st),
        out(o),
        sweep(sw),
        tree(sw ? sw->acquire_tree(s.surface_points(), c.hmat_leaf)
                : std::make_shared<const ClusterTree>(s.surface_points(),
                                                      c.hmat_leaf)),
        cast_ss(make_cast(s)),
        gen_tree(base_gen(s, cast_ss), tree->original_of_tree()) {
    // Permute the coupling rows once.
    MemoryScope scope(MemTag::kCouplingBlock);
    const auto& perm = tree->tree_of_original();
    sparse::Triplets<T> trip(sys.ns(), sys.nv());
    for (index_t r = 0; r < sys.A_sv.rows(); ++r)
      for (offset_t k = sys.A_sv.row_begin(r); k < sys.A_sv.row_end(r); ++k)
        trip.add(perm[static_cast<std::size_t>(r)], sys.A_sv.col(k),
                 sys.A_sv.value(k));
    A_sv_tree = sparse::Csr<T>::from_triplets(trip);
    if constexpr (kMixed) {
      MemoryScope cast_scope(MemTag::kSparseMatrix);
      A_vv_store = sys.A_vv.template converted<ST>();
      {
        MemoryScope sv_scope(MemTag::kCouplingBlock);
        A_sv_store = A_sv_tree.template converted<ST>();
      }
      A_vv_st = &A_vv_store;
      A_sv_st = &A_sv_store;
    } else {
      A_vv_st = &sys.A_vv;
      A_sv_st = &A_sv_tree;
    }
  }

  /// The factor-precision A_ss generator (compressed assembly reads it).
  const hmat::MatrixGenerator<ST>& gen_ss() const {
    return base_gen(sys, cast_ss);
  }

  /// Factor the dense Schur accumulator and store it with the interior
  /// factors as the ST precision bank of `out`. A zero pivot in the
  /// blocked LDL^T is recoverable (the driver retries with LU); one in LU
  /// is final.
  void finish(MultifrontalSolver<ST>&& mf, Matrix<ST>&& S) const {
    stats.schur_bytes = S.size_bytes();
    stats.schur_compression_ratio = 1.0;
    dense::DenseSolver<ST> ds;
    const bool ldlt = sys.symmetric && deg.dense_ldlt_ok;
    try {
      auto phase = Timed::phase(stats, "dense_factorization");
      ds.factorize(std::move(S), ldlt);
    } catch (const la::SingularMatrix& e) {
      throw ClassifiedError(
          ldlt ? ErrorCode::kNumericalBreakdown : ErrorCode::kSingular,
          "dense.factor", e.what());
    }
    store(std::move(mf), std::move(ds));
  }

  /// Factor the compressed Schur H-matrix — symmetric H-LDL^T (the paper's
  /// HMAT mode) on a symmetric system, H-LU otherwise — and store it with
  /// the interior factors. A pivot breakdown in the unpivoted H-LDL^T is
  /// recoverable (the driver retries with H-LU); one in H-LU is not.
  void finish(MultifrontalSolver<ST>&& mf, HMatrix<ST>&& S) const {
    stats.schur_bytes = S.memory_bytes();
    stats.schur_compression_ratio = S.compression_ratio();
    const bool ldlt = sys.symmetric && deg.hmat_ldlt_ok;
    try {
      auto phase = Timed::phase(stats, "dense_factorization");
      if (ldlt) {
        S.ldlt_factorize();
      } else {
        S.lu_factorize();
      }
    } catch (const la::SingularMatrix& e) {
      throw ClassifiedError(
          ldlt ? ErrorCode::kNumericalBreakdown : ErrorCode::kSingular,
          ldlt ? "hldlt.pivot" : "hlu.pivot", e.what());
    }
    stats.schur_bytes = std::max(stats.schur_bytes, S.memory_bytes());
    store(std::move(mf), std::move(S));
  }

  /// The bordered matrix [[A_vv, C_c^T], [C_r, 0]] in factor precision,
  /// where C_r holds coupling rows [r0, r0 + nr) and C_c rows [c0, c0 + nc)
  /// (tree order), padded square to nv + max(nr, nc). The advanced
  /// coupling's K borders A_vv with all of A_sv; a multi-factorization W
  /// with one block row of it on each side.
  sparse::Csr<ST> bordered(index_t r0, index_t nr, index_t c0,
                           index_t nc) const {
    const index_t nv = sys.nv();
    const index_t n = nv + std::max(nr, nc);
    sparse::Triplets<ST> trip(n, n);
    const auto& A = *A_vv_st;
    for (index_t r = 0; r < nv; ++r)
      for (offset_t k = A.row_begin(r); k < A.row_end(r); ++k)
        trip.add(r, A.col(k), A.value(k));
    const auto& C = *A_sv_st;
    for (index_t r = 0; r < nr; ++r)
      for (offset_t k = C.row_begin(r0 + r); k < C.row_end(r0 + r); ++k)
        trip.add(nv + r, C.col(k), C.value(k));
    for (index_t q = 0; q < nc; ++q)
      for (offset_t k = C.row_begin(c0 + q); k < C.row_end(c0 + q); ++k)
        trip.add(C.col(k), nv + q, C.value(k));
    MemoryScope scope(MemTag::kSparseMatrix);
    return sparse::Csr<ST>::from_triplets(trip);
  }

  /// Sparse factorization with the failure classified at the site: an
  /// unpivoted-LDLT zero pivot is a recoverable kNumericalBreakdown (the
  /// driver retries with LU); an LU zero pivot means the matrix really is
  /// singular. When sweeping, `sweep_key` names this block's symbolic
  /// analysis in the SweepContext: a stored analysis that still matches
  /// the matrix/options (pattern identity is guaranteed by the shifted
  /// family; factorize_with re-validates anyway) replaces the analysis
  /// phase, and a cold factorization exports its analysis for the next
  /// frequency. A validation mismatch — e.g. a degraded retry that
  /// flipped LDLT to LU — silently falls back to cold analysis.
  void factorize_sparse(MultifrontalSolver<ST>& mf, const sparse::Csr<ST>& A,
                        bool symmetric, index_t schur_size,
                        const char* sweep_key = nullptr) const {
    SolverOptions so;
    so.symmetric = symmetric && deg.sparse_ldlt_ok;
    so.schur_size = schur_size;
    so.compress = cfg.sparse_compression;
    so.blr_eps = cfg.eps;
    so.ordering = cfg.ordering;
    so.parallel_fronts = cfg.parallel_fronts;
    so.out_of_core = cfg.out_of_core;
    so.ooc_dir = cfg.ooc_dir;
    try {
      bool reused = false;
      if (sweep && sweep_key) {
        if (const auto* a = sweep->find_analysis(sweep_key)) {
          try {
            mf.factorize_with(A, so, *a);
            reused = true;
          } catch (const std::invalid_argument&) {
            // stale analysis (reshaped problem): re-analyze below
          }
        }
      }
      if (!reused) {
        mf.factorize(A, so);
        if (sweep && sweep_key)
          sweep->store_analysis(sweep_key, mf.export_analysis());
      }
    } catch (const la::SingularMatrix& e) {
      throw ClassifiedError(so.symmetric ? ErrorCode::kNumericalBreakdown
                                         : ErrorCode::kSingular,
                            "mf.front_factor", e.what());
    }
  }

  /// Assemble the compressed Schur base S_0 = A_ss (tree order), reusing
  /// the sweep's recorded block skeleton and per-leaf rank hints when one
  /// is available. The skeleton is scalar-independent, so a
  /// precision-escalated retry keeps reusing it.
  HMatrix<ST> assemble_schur_base() const {
    if (sweep)
      return HMatrix<ST>::assemble(*tree, *tree, gen_ss(), h_options(cfg),
                                   sweep->skeleton("schur"));
    return HMatrix<ST>::assemble(*tree, *tree, gen_ss(), h_options(cfg));
  }

 private:
  void store(MultifrontalSolver<ST>&& mf,
             std::variant<dense::DenseSolver<ST>, HMatrix<ST>>&& schur) const {
    out.factors.template emplace<detail::Factors<ST>>(
        detail::Factors<ST>{std::move(mf), std::move(schur)});
  }

  static std::optional<hmat::CastGenerator<ST, T>> make_cast(
      const CoupledSystem<T>& s) {
    if constexpr (kMixed) {
      return std::optional<hmat::CastGenerator<ST, T>>(std::in_place,
                                                       *s.A_ss);
    } else {
      return std::nullopt;
    }
  }
  static const hmat::MatrixGenerator<ST>& base_gen(
      const CoupledSystem<T>& s,
      const std::optional<hmat::CastGenerator<ST, T>>& cast) {
    if constexpr (kMixed) {
      return *cast;
    } else {
      return *s.A_ss;
    }
  }
};

/// Frequency-lagged mode for solve_batch (FactoredCoupled::solve_lagged):
/// the factors belong to a *neighboring* operator of the same family, and
/// iterative refinement against `residual_sys` — the operator actually
/// being solved — is what turns the lagged direct solve into an exact
/// answer. Refinement is mandatory and *strict*: a stall or running out of
/// sweeps above tolerance throws at site "refine.stall" regardless of
/// factor precision, because the caller has a better option (factorize the
/// target afresh).
template <class T>
struct BatchOverride {
  const CoupledSystem<T>* residual_sys = nullptr;
  int refine_iterations = 0;
  double refine_tolerance = 0;
};

/// One application of the factored coupled inverse (paper eq. (7)) to an
/// nrhs-column block (R_v, R_s) in caller coordinates:
///   X_s = S^{-1} (R_s - A_sv A_vv^{-1} R_v),
///   X_v = A_vv^{-1} (R_v - A_sv^T X_s).
/// Returns {X_v, X_s}, X_s in surface tree order; solve_batch assigns it
/// (the direct solve) or adds it (a refinement correction). Every call
/// records the solution.interior_solve and solution.schur_solve stages, so
/// a correction's share nests inside its solution.refine sweep.
template <class T>
std::pair<Matrix<T>, Matrix<T>> apply_inverse(
    const detail::FactoredImpl<T>& f, la::ConstMatrixView<T> R_v,
    la::ConstMatrixView<T> R_s, SolveStats& stats) {
  const index_t nv = R_v.rows();
  const index_t ns = R_s.rows();
  const index_t nrhs = R_v.cols();
  const auto& perm = f.tree->tree_of_original();

  // y_v = A_vv^{-1} R_v.
  Matrix<T> yv(nv, nrhs);
  {
    auto stage = Timed::stage(stats, "solution.interior_solve");
    stage.span().arg("nrhs", static_cast<long long>(nrhs));
    yv.view().copy_from(R_v);
    f.interior_solve(yv.view());
  }

  // T = R_s - A_sv y_v (tree order).
  Matrix<T> t(ns, nrhs);
  for (index_t j = 0; j < nrhs; ++j)
    for (index_t i = 0; i < ns; ++i)
      t(perm[static_cast<std::size_t>(i)], j) = R_s(i, j);
  f.A_sv_tree.spmm(T{-1}, la::ConstMatrixView<T>(yv.view()), T{1}, t.view());

  // X_s = S^{-1} T.
  {
    auto stage = Timed::stage(stats, "solution.schur_solve");
    stage.span().arg("nrhs", static_cast<long long>(nrhs));
    f.schur_solve(t.view());
  }

  // X_v = A_vv^{-1} (R_v - A_sv^T X_s).
  Matrix<T> xv(nv, nrhs);
  {
    auto stage = Timed::stage(stats, "solution.interior_solve");
    stage.span().arg("nrhs", static_cast<long long>(nrhs));
    xv.view().copy_from(R_v);
    f.A_sv_tree.spmm_trans(T{-1}, la::ConstMatrixView<T>(t.view()), T{1},
                           xv.view());
    f.interior_solve(xv.view());
  }
  return {std::move(xv), std::move(t)};
}

/// Common solution sequence (paper eq. (7)), generalized to an nrhs-column
/// block: forms the reduced right-hand side, solves the Schur system,
/// back-substitutes and optionally refines — all on blocks. On entry
/// B_v/B_s hold right-hand-side columns in caller coordinates; on return
/// they hold the solution. Every kernel involved (spmm, spmm_trans,
/// generator_multiply, the triangular block solves) accumulates each
/// column independently in a fixed scan order, so column j of the result
/// is bitwise identical to a single-column solve of that column, at any
/// thread count.
template <class T>
void solve_batch(const detail::FactoredImpl<T>& f, MatrixView<T> B_v,
                 MatrixView<T> B_s, SolveStats& stats,
                 const BatchOverride<T>* ov = nullptr) {
  const CoupledSystem<T>& sys = ov ? *ov->residual_sys : *f.sys;
  const index_t nv = sys.nv();
  const index_t ns = sys.ns();
  const index_t nrhs = B_v.cols();
  auto phase = Timed::phase(stats, "solution");
  phase.span().arg("nrhs", static_cast<long long>(nrhs));
  // Everything the solution phase allocates (reduced RHS, residuals,
  // refinement corrections, solve transients) is RHS workspace.
  MemoryScope mem_scope(MemTag::kRhsWorkspace);

  const auto& orig = f.tree->original_of_tree();

  const int refine_its =
      ov ? ov->refine_iterations : f.cfg.refine_iterations;
  const double refine_tol =
      ov ? ov->refine_tolerance : f.cfg.refine_tolerance;
  const bool strict = ov != nullptr;  // lagged mode: must reach tolerance

  // Refinement re-applies the exact operator against the original
  // right-hand side after B_v/B_s have been overwritten with the solution.
  Matrix<T> Bv0, Bs0;
  if (refine_its > 0) {
    Bv0 = Matrix<T>(nv, nrhs);
    Bs0 = Matrix<T>(ns, nrhs);
    Bv0.view().copy_from(la::ConstMatrixView<T>(B_v));
    Bs0.view().copy_from(la::ConstMatrixView<T>(B_s));
  }

  {
    // The direct-solve transients are released before refinement
    // allocates its own blocks (see planner.h solve_batch_bytes).
    auto [xv, xs] = apply_inverse(f, la::ConstMatrixView<T>(B_v),
                                  la::ConstMatrixView<T>(B_s), stats);
    for (index_t j = 0; j < nrhs; ++j) {
      for (index_t i = 0; i < nv; ++i) B_v(i, j) = xv(i, j);
      for (index_t p = 0; p < ns; ++p)
        B_s(orig[static_cast<std::size_t>(p)], j) = xs(p, j);
    }
  }

  // Optional iterative refinement against the *exact* coupled operator
  // (the dense block applied through its kernel generator): recovers the
  // accuracy lost to aggressive compression — including the ~1e-6 error
  // floor of single-precision factors. Runs on the whole block.
  stats.refine_residuals.clear();
  stats.refine_sweeps = 0;
  // Stall detection for the mixed-precision path: when cond(A)*eps_single
  // is too large the float-factor correction stops contracting the
  // residual well above the target. Escalating to double factors is the
  // recovery, so a plateau (or a non-finite residual) is thrown as a
  // recoverable numerical breakdown at site "refine.stall".
  double prev_worst = std::numeric_limits<double>::infinity();
  const double stall_floor = std::max(refine_tol, 1e-9);
  bool converged = false;
  for (int it = 0; it < refine_its; ++it) {
    auto stage = Timed::stage(stats, "solution.refine");
    stage.span()
        .arg("sweep", static_cast<long long>(it))
        .arg("nrhs", static_cast<long long>(nrhs));
    Metrics::instance().add(Metric::kRefineSweeps, 1);

    // Residuals in caller coordinates: R_v = B_v0 - A_vv X_v - A_sv^T X_s,
    // R_s = B_s0 - A_sv X_v - A_ss X_s.
    Matrix<T> Rv(nv, nrhs), Rs(ns, nrhs);
    Rv.view().copy_from(la::ConstMatrixView<T>(Bv0.view()));
    sys.A_vv.spmm(T{-1}, la::ConstMatrixView<T>(B_v), T{1}, Rv.view());
    sys.A_sv.spmm_trans(T{-1}, la::ConstMatrixView<T>(B_s), T{1}, Rv.view());
    fembem::generator_multiply(*sys.A_ss, la::ConstMatrixView<T>(B_s),
                               Rs.view());
    for (index_t j = 0; j < nrhs; ++j)
      for (index_t i = 0; i < ns; ++i) Rs(i, j) = Bs0(i, j) - Rs(i, j);
    sys.A_sv.spmm(T{-1}, la::ConstMatrixView<T>(B_v), T{1}, Rs.view());

    // Per-column convergence accounting: the relative coupled residual of
    // the iterate entering this sweep; the last sweep's values are what
    // SolveStats::refine_residuals reports.
    stats.refine_residuals.assign(static_cast<std::size_t>(nrhs), 0.0);
    for (index_t j = 0; j < nrhs; ++j) {
      double rr = 0, bb = 0;
      for (index_t i = 0; i < nv; ++i) {
        rr += std::norm(Rv(i, j));
        bb += std::norm(Bv0(i, j));
      }
      for (index_t i = 0; i < ns; ++i) {
        rr += std::norm(Rs(i, j));
        bb += std::norm(Bs0(i, j));
      }
      stats.refine_residuals[static_cast<std::size_t>(j)] =
          std::sqrt(rr) / std::sqrt(std::max(1e-300, bb));
    }
    double worst = 0;
    for (double r : stats.refine_residuals) worst = std::max(worst, r);

    // Converged: every column meets the requested tolerance, skip the
    // remaining sweeps (refine_tolerance == 0 keeps the historical
    // fixed-sweep behavior).
    if (refine_tol > 0 && worst <= refine_tol) {
      converged = true;
      break;
    }

    // Stalled: non-finite residual, or — past the first correction — a
    // contraction factor below 2x while still above the accuracy the
    // factors should support. The mixed-precision path throws (the
    // recovery is to re-factorize in double), and so does the strict
    // lagged mode (the recovery is to factorize the target operator
    // afresh); a full-precision plateau on matching factors has no better
    // factorization to escalate to. The failpoint forces the stall
    // deterministically for the resilience tests.
    // The contraction bar differs by mode: mixed precision demands 2x per
    // sweep (a float-factor plateau sits far above tolerance and double
    // factors are one retry away), but frequency-lagged factors contract
    // at ~||A(w)^-1 (A(w') - A(w))||, legitimately slow for wider
    // frequency steps — only near-stagnation proves they cannot deliver.
    const double contraction_bar = strict && !f.mixed() ? 0.9 : 0.5;
    bool stalled = !std::isfinite(worst);
    if ((f.mixed() || strict) && it >= 2 && worst > stall_floor &&
        worst > contraction_bar * prev_worst)
      stalled = true;
    if (failpoint("refine.stall")) stalled = true;
    if (stalled && (f.mixed() || strict)) {
      Metrics::instance().add(Metric::kRefineStalls, 1);
      throw ClassifiedError(
          ErrorCode::kNumericalBreakdown, "refine.stall",
          "iterative refinement stalled at relative residual " +
              std::to_string(worst) +
              (strict ? " with frequency-lagged factors"
                      : " with single-precision factors"));
    }
    prev_worst = worst;

    // Corrections through the same factorizations.
    auto [dv, dt] = apply_inverse(f, la::ConstMatrixView<T>(Rv.view()),
                                  la::ConstMatrixView<T>(Rs.view()), stats);
    for (index_t j = 0; j < nrhs; ++j) {
      for (index_t i = 0; i < nv; ++i) B_v(i, j) += dv(i, j);
      for (index_t p = 0; p < ns; ++p)
        B_s(orig[static_cast<std::size_t>(p)], j) += dt(p, j);
    }
    stats.refine_sweeps = it + 1;
  }
  // Strict mode must *demonstrate* convergence: the loop ending with
  // corrections still pending above tolerance means the lagged factors
  // cannot deliver the requested accuracy at this frequency.
  if (strict && !converged) {
    Metrics::instance().add(Metric::kRefineStalls, 1);
    throw ClassifiedError(
        ErrorCode::kNumericalBreakdown, "refine.stall",
        "frequency-lagged refinement did not reach tolerance " +
            std::to_string(refine_tol) + " within " +
            std::to_string(refine_its) + " sweeps");
  }
}

// ---------------------------------------------------------------------------
// Baseline coupling (II-E) and multi-solve (Alg. 1 / Alg. 2)
// ---------------------------------------------------------------------------

/// blocked = false reproduces the baseline coupling (one sparse solve with
/// all n_BEM right-hand sides at once); blocked = true is multi-solve.
template <class T, class ST>
void run_multisolve(Run<T, ST>& run, bool blocked, bool compressed) {
  const auto& cfg = run.cfg;
  auto& stats = run.stats;
  const index_t nv = run.sys.nv();
  const index_t ns = run.sys.ns();

  MultifrontalSolver<ST> mf;
  {
    auto phase = Timed::phase(stats, "sparse_factorization");
    run.factorize_sparse(mf, *run.A_vv_st, true, 0, "vv");
  }
  stats.sparse_factor_bytes = mf.factor_bytes();

  // Y = A_vv^{-1} A_sv(c0 : c0 + nc)^T, retrieved dense (the API
  // limitation).
  auto solve_panel = [&](index_t c0, index_t nc) {
    Matrix<ST> Y(nv, nc);
    auto stage = Timed::stage(stats, "schur.panel_solve");
    stage.span()
        .arg("c0", static_cast<long long>(c0))
        .arg("ncols", static_cast<long long>(nc));
    run.A_sv_st->rows_as_dense_transposed(c0, nc, Y.view());
    mf.solve(Y.view());
    return Y;
  };

  if (!compressed) {
    // Dense Schur accumulation (MUMPS/SPIDO-style coupling).
    Matrix<ST> S = [&] {
      MemoryScope scope(MemTag::kSchurDense);
      return Matrix<ST>(ns, ns);
    }();
    {
      auto phase = Timed::phase(stats, "schur");
      const index_t step = blocked ? cfg.n_c : ns;
      for (index_t c0 = 0; c0 < ns; c0 += step) {
        const index_t nc = std::min(step, ns - c0);
        budget_failpoint("alloc.panel", nv, nc, sizeof(ST));
        MemoryScope scope(MemTag::kSchurPanel);
        const Matrix<ST> Y = solve_panel(c0, nc);
        auto stage = Timed::stage(stats, "schur.assemble");
        auto slab = S.block(0, c0, ns, nc);
        fembem::generator_block(run.gen_tree, 0, c0, slab);  // A_ss block
        run.A_sv_st->spmm(ST{-1}, Y.view(), ST{1}, slab);    // - A_sv Y_i
      }
    }
    run.finish(std::move(mf), std::move(S));
  } else {
    // Compressed Schur (MUMPS/HMAT-style): A_ss assembled directly in
    // compressed form; dense Z panels folded in with compressed AXPYs.
    std::optional<HMatrix<ST>> S_store;
    {
      auto phase = Timed::phase(stats, "schur");
      {
        auto stage = Timed::stage(stats, "schur.assemble");
        S_store = run.assemble_schur_base();
      }
      HMatrix<ST>& S = *S_store;
      const index_t panel = std::max(cfg.n_S, cfg.n_c);

      // Alg. 2: Z = A_sv A_vv^{-1} A_sv(c0 : c0 + np)^T from n_c-column
      // sparse solves, then S(:, c0 : c0 + np) -= Z with a compressed AXPY.
      // The AXPY costs milliseconds against a second of panel solves
      // (EXPERIMENTS.md), so the panels are folded on this thread, one live
      // panel at a time, in ascending c0 order.
      for (index_t c0 = 0; c0 < ns; c0 += panel) {
        Matrix<ST> Z = [&] {
          MemoryScope scope(MemTag::kSchurPanel);
          const index_t np = std::min(panel, ns - c0);
          budget_failpoint("alloc.panel", ns, np, sizeof(ST));
          Matrix<ST> Z(ns, np);
          for (index_t cc = 0; cc < np; cc += cfg.n_c) {
            const index_t nc = std::min(cfg.n_c, np - cc);
            const Matrix<ST> Y = solve_panel(c0 + cc, nc);
            auto stage = Timed::stage(stats, "schur.spmm");
            run.A_sv_st->spmm(ST{1}, Y.view(), ST{0}, Z.block(0, cc, ns, nc));
          }
          return Z;
        }();
        auto stage = Timed::stage(stats, "schur.axpy");
        stage.span()
            .arg("c0", static_cast<long long>(c0))
            .arg("ncols", static_cast<long long>(Z.cols()));
        S.add_dense_block(ST{-1}, Z.view(), 0, c0);  // compressed AXPY
        Metrics::instance().add(Metric::kPanelsFolded, 1);
      }
    }
    run.finish(std::move(mf), std::move(*S_store));
  }
}

// ---------------------------------------------------------------------------
// Randomized compressed Schur (the paper's future-work extension): the
// correction M = A_sv A_vv^{-1} A_sv^T is captured directly as low-rank
// factors by an adaptive two-pass randomized range finder (M is symmetric
// because A_vv is, so M ~ Q (M Q)^T), then folded into the H-matrix A_ss.
// Worthwhile when M's global spectrum decays fast; the ablation bench
// measures where it wins/loses against the blocked algorithms.
// ---------------------------------------------------------------------------

template <class T, class ST>
void run_multisolve_randomized(Run<T, ST>& run) {
  const auto& cfg = run.cfg;
  auto& stats = run.stats;
  const index_t nv = run.sys.nv();
  const index_t ns = run.sys.ns();

  MultifrontalSolver<ST> mf;
  {
    auto phase = Timed::phase(stats, "sparse_factorization");
    run.factorize_sparse(mf, *run.A_vv_st, true, 0, "vv");
  }
  stats.sparse_factor_bytes = mf.factor_bytes();

  // out := M * G by two sparse products around a multi-RHS solve.
  auto apply_m = [&](la::ConstMatrixView<ST> G, la::MatrixView<ST> out) {
    MemoryScope scope(MemTag::kSchurPanel);
    Matrix<ST> Y(nv, G.cols());
    run.A_sv_st->spmm_trans(ST{1}, G, ST{0}, Y.view());
    mf.solve(Y.view());
    run.A_sv_st->spmm(ST{1}, la::ConstMatrixView<ST>(Y.view()), ST{0}, out);
  };

  std::optional<HMatrix<ST>> S_store;
  {
    auto phase = Timed::phase(stats, "schur");
    {
      auto stage = Timed::stage(stats, "schur.assemble");
      S_store = run.assemble_schur_base();
    }
    HMatrix<ST>& S = *S_store;

    Rng rng(20220512);
    auto gaussian = [&](index_t rows, index_t cols) {
      MemoryScope scope(MemTag::kSchurPanel);
      Matrix<ST> G(rows, cols);
      for (index_t j = 0; j < cols; ++j)
        for (index_t i = 0; i < rows; ++i)
          G(i, j) = ST(rng.normal());
      return G;
    };

    // The sketch block, range basis and probe workspace of the randomized
    // range finder are all Schur-feeding panels.
    MemoryScope rand_scope(MemTag::kSchurPanel);
    const index_t cap = std::max<index_t>(
        1, std::min<index_t>(ns, static_cast<index_t>(kRandMaxRankRatio * ns)));
    index_t r = std::min<index_t>(cap, kRandInitialRank);
    Matrix<ST> W(ns, 0);
    Matrix<ST> Q;
    while (true) {
      // Extend the sample block to r columns.
      const index_t have = W.cols();
      Matrix<ST> W_new(ns, r);
      if (have > 0)
        W_new.block(0, 0, ns, have).copy_from(
            la::ConstMatrixView<ST>(W.view()));
      {
        auto G = gaussian(ns, r - have);
        apply_m(la::ConstMatrixView<ST>(G.view()),
                W_new.block(0, have, ns, r - have));
      }
      W = std::move(W_new);
      // Orthonormal range basis.
      Matrix<ST> QR = W;
      std::vector<ST> tau;
      la::householder_qr(QR.view(), tau);
      Q = la::form_q_thin(la::ConstMatrixView<ST>(QR.view()), tau);
      // Posterior accuracy probe: || (I - Q Q^T') M z || / || M z ||.
      const index_t n_probe = 4;
      auto Z = gaussian(ns, n_probe);
      Matrix<ST> P(ns, n_probe);
      apply_m(la::ConstMatrixView<ST>(Z.view()), P.view());
      Matrix<ST> C(r, n_probe);
      // C = Q^H P (unitary basis: conjugated inner products).
      for (index_t j = 0; j < n_probe; ++j)
        for (index_t c = 0; c < r; ++c) {
          ST acc{};
          for (index_t i = 0; i < ns; ++i) acc += conj_if(Q(i, c)) * P(i, j);
          C(c, j) = acc;
        }
      Matrix<ST> R = P;
      la::gemm(ST{-1}, la::ConstMatrixView<ST>(Q.view()), la::Op::kNoTrans,
               la::ConstMatrixView<ST>(C.view()), la::Op::kNoTrans, ST{1},
               R.view());
      const double rel =
          la::norm_fro(la::ConstMatrixView<ST>(R.view())) /
          std::max(1e-300, double(la::norm_fro(la::ConstMatrixView<ST>(
                               P.view()))));
      if (rel <= cfg.eps || r >= cap) break;
      r = std::min<index_t>(cap, 2 * r);
    }
    stats.randomized_rank = Q.cols();

    // Second pass. With the library's plain-transpose Rk convention and M
    // complex symmetric (M^T = M), the projected approximation
    // M ~ Q Q^H M factors as U V^T with U = Q and V = M conj(Q):
    //   Q (M conj(Q))^T = Q conj(Q)^T M^T = (Q Q^H) M.
    Matrix<ST> Qc(ns, Q.cols());
    for (index_t j = 0; j < Q.cols(); ++j)
      for (index_t i = 0; i < ns; ++i) Qc(i, j) = conj_if(Q(i, j));
    la::RkFactors<ST> correction;
    correction.V = Matrix<ST>(ns, Q.cols());
    apply_m(la::ConstMatrixView<ST>(Qc.view()), correction.V.view());
    correction.U = std::move(Q);
    // S -= M (compressed, directly from factors).
    S.add_low_rank(ST{-1}, correction);
  }
  run.finish(std::move(mf), std::move(*S_store));
}

// ---------------------------------------------------------------------------
// Advanced coupling (II-F): one sparse factorization+Schur call
// ---------------------------------------------------------------------------

template <class T, class ST>
void run_advanced(Run<T, ST>& run) {
  const auto& cfg = run.cfg;
  auto& stats = run.stats;
  const index_t ns = run.sys.ns();

  // K = [[A_vv, A_sv^T],[A_sv, 0]], symmetric, Schur on the trailing ns.
  MultifrontalSolver<ST> mf;
  {
    auto phase = Timed::phase(stats, "sparse_factorization");
    run.factorize_sparse(mf, run.bordered(0, ns, 0, ns), true, ns, "K");
  }
  stats.sparse_factor_bytes = mf.factor_bytes();

  // The Schur complement arrives as one non-compressed dense matrix.
  Matrix<ST> S = mf.take_schur();  // = -A_sv A_vv^{-1} A_sv^T (tree order)
  {
    auto phase = Timed::phase(stats, "schur");
    auto stage = Timed::stage(stats, "schur.assemble");
    // S += A_ss, materialized in column slabs through generator_block
    // (amortizes kernel evaluation the same way the baseline branch does).
    const index_t slab = std::max<index_t>(1, cfg.n_c);
    MemoryScope scope(MemTag::kSchurPanel);
    Matrix<ST> G(ns, std::min(slab, ns));
    for (index_t c0 = 0; c0 < ns; c0 += slab) {
      const index_t nc = std::min(slab, ns - c0);
      auto Gb = G.block(0, 0, ns, nc);
      fembem::generator_block(run.gen_tree, 0, c0, Gb);
      la::axpy(ST{1}, Gb, S.block(0, c0, ns, nc));
    }
  }
  // The factorization of K = [[A_vv, A_sv^T],[A_sv, 0]] with a Schur
  // feature on the trailing ns also serves as the interior solver: a solve
  // with an nv-row block runs through the A_vv subsystem only.
  run.finish(std::move(mf), std::move(S));
}

// ---------------------------------------------------------------------------
// Multi-factorization (Alg. 3, plus the compressed-Schur variant)
// ---------------------------------------------------------------------------

template <class T, class ST>
void run_multifacto(Run<T, ST>& run, bool compressed) {
  const auto& cfg = run.cfg;
  auto& stats = run.stats;
  const index_t ns = run.sys.ns();
  const index_t nb = std::max<index_t>(1, cfg.n_b);

  // Schur accumulator: dense, or the compressed A_ss H-matrix.
  Matrix<ST> S_dense;
  std::optional<HMatrix<ST>> S_h;
  if (compressed) {
    auto phase = Timed::phase(stats, "schur");
    auto stage = Timed::stage(stats, "schur.assemble");
    S_h = run.assemble_schur_base();
  } else {
    MemoryScope scope(MemTag::kSchurDense);
    S_dense = Matrix<ST>(ns, ns);
  }

  // One job per (bi, bj) block of S over balanced surface-dof boundaries:
  // rows [r0, r0 + nr) x columns [c0, c0 + nc).
  struct Job {
    index_t bi, bj, r0, nr, c0, nc;
  };
  auto bound = [&](index_t k) {
    return static_cast<index_t>(static_cast<offset_t>(k) * ns / nb);
  };
  std::vector<Job> jobs;
  for (index_t bi = 0; bi < nb; ++bi)
    for (index_t bj = 0; bj < nb; ++bj)
      jobs.push_back(Job{bi, bj, bound(bi), bound(bi + 1) - bound(bi),
                         bound(bj), bound(bj + 1) - bound(bj)});

  // One W-factorization; `mf` receives the factors.
  auto factor_job = [&](const Job& job, MultifrontalSolver<ST>& mf) {
    // W = [[A_vv, A_sv(j)^T],[A_sv(i), 0]]; unsymmetric (duplicated
    // storage + LU), padded square when the edge blocks differ in size.
    const index_t p = std::max(job.nr, job.nc);
    auto phase = Timed::phase(stats, "sparse_factorization");
    auto stage = Timed::stage(stats, "multifacto.factor");
    stage.span()
        .arg("bi", static_cast<long long>(job.bi))
        .arg("bj", static_cast<long long>(job.bj))
        .arg("schur_size", static_cast<long long>(p));
    Metrics::instance().add(Metric::kMultifactoJobs, 1);
    budget_failpoint("mf.job", p, p, sizeof(ST));
    // Superfluous re-factorization of A_vv on every call: the API
    // limitation that gives the algorithm its name. In a sweep each
    // (bi, bj) block at least reuses its own symbolic analysis across
    // frequencies (a changed n_b reshapes W and fails validation — cold).
    const std::string wkey =
        "W:" + std::to_string(job.bi) + ":" + std::to_string(job.bj);
    run.factorize_sparse(mf, run.bordered(job.r0, job.nr, job.c0, job.nc),
                         false, p, wkey.c_str());
  };

  MultifrontalSolver<ST> mf_last;  // the last diagonal factorization serves
                                   // the interior solves of the finish phase

  // Fold one retrieved Schur block into the accumulator. Commits happen
  // strictly in the serial (bi, bj) order, so the recompression sequence
  // of the compressed accumulator -- and hence the result -- is identical
  // to a serial run.
  auto commit_job = [&](const Job& job, const Matrix<ST>& X,
                        MultifrontalSolver<ST>& mf) {
    {
      auto phase = Timed::phase(stats, "schur");
      auto stage = Timed::stage(stats, "multifacto.commit");
      stage.span()
          .arg("bi", static_cast<long long>(job.bi))
          .arg("bj", static_cast<long long>(job.bj));
      const auto Xb = X.block(0, 0, job.nr, job.nc);
      if (compressed) {
        S_h->add_dense_block(ST{1}, Xb, job.r0, job.c0);
      } else {
        auto slab = S_dense.block(job.r0, job.c0, job.nr, job.nc);
        fembem::generator_block(run.gen_tree, job.r0, job.c0, slab);
        la::axpy(ST{1}, Xb, slab);
      }
    }
    if (job.bi == nb - 1 && job.bj == nb - 1) {
      mf_last = std::move(mf);
      stats.sparse_factor_bytes = mf_last.factor_bytes();
    }
  };

  // Admission-controlled concurrency: the independent (bi, bj) jobs run in
  // parallel, each acquiring a slot sized by the planner's per-job
  // footprint before it allocates. Near the budget the worker count (and
  // the runtime admission) degrade to one job in flight -- the serial
  // algorithm -- instead of throwing. predict_peak counts the same workers.
  // One worker runs the jobs one after another in the same commit order.
  int workers = 1;
  std::size_t job_bytes = 0;
  if (resolve_threads(cfg.num_threads) > 1 && nb > 1) {
    PlannerInputs in = planner_inputs(run.sys, cfg);
    in.scalar_bytes = sizeof(ST);  // jobs allocate in factor precision
    job_bytes = multifacto_job_bytes(in, cfg);
    workers = multifacto_workers(job_bytes, cfg,
                                 MemoryTracker::instance().current());
    if (workers <= 1) {
      // The planner degraded the concurrent jobs to the serial algorithm.
      Metrics::instance().add(Metric::kAdmissionDegraded, 1);
      trace_instant("admission", "multifacto.degraded_serial");
    }
  }

  AdmissionController admission(job_bytes, cfg.memory_budget);
  std::exception_ptr error = nullptr;
  std::atomic<bool> failed{false};
  const auto n_jobs = static_cast<std::ptrdiff_t>(jobs.size());
#pragma omp parallel for ordered schedule(dynamic, 1) num_threads(workers)
  for (std::ptrdiff_t k = 0; k < n_jobs; ++k) {
    bool admitted = false;
    {
      MultifrontalSolver<ST> mf;
      Matrix<ST> X;
      bool ok = false;
      if (!failed.load(std::memory_order_relaxed)) {
        admission.acquire();
        admitted = true;
        trace_gauge_add("jobs.inflight", 1);
        try {
          factor_job(jobs[static_cast<std::size_t>(k)], mf);
          X = mf.take_schur();
          ok = true;
        } catch (...) {
#pragma omp critical(cs_multifacto_error)
          {
            if (!failed.exchange(true)) error = std::current_exception();
          }
        }
      }
#pragma omp ordered
      {
        if (ok && !failed.load(std::memory_order_relaxed)) {
          try {
            commit_job(jobs[static_cast<std::size_t>(k)], X, mf);
          } catch (...) {
#pragma omp critical(cs_multifacto_error)
            {
              if (!failed.exchange(true)) error = std::current_exception();
            }
          }
        }
      }
    }  // job transients (factors, X) released before the slot
    if (admitted) {
      trace_gauge_add("jobs.inflight", -1);
      admission.release();
    }
  }
  if (error) std::rethrow_exception(error);

  if (compressed) {
    run.finish(std::move(mf_last), std::move(*S_h));
  } else {
    run.finish(std::move(mf_last), std::move(S_dense));
  }
}

/// One factorization attempt with the effective (possibly degraded)
/// config. A single-precision run instantiates the whole strategy stack
/// (multifrontal, H-matrix, dense solver, packed kernels) at
/// single_of_t<T> while the solution/refinement phase stays in T. On
/// success `out` holds the complete factorization.
template <class T>
void run_strategy(const CoupledSystem<T>& system, const Config& cfg,
                  const Degrade& deg, SolveStats& stats,
                  detail::FactoredImpl<T>& out, SweepContext* sweep) {
  with_factor_scalar<T>(cfg.factor_precision, [&](auto scalar) {
    Run<T, decltype(scalar)> run(system, cfg, deg, stats, out, sweep);
    switch (cfg.strategy) {
      case Strategy::kBaselineCoupling:
        run_multisolve(run, /*blocked=*/false, /*compressed=*/false);
        break;
      case Strategy::kMultiSolve:
        run_multisolve(run, /*blocked=*/true, /*compressed=*/false);
        break;
      case Strategy::kMultiSolveCompressed:
        run_multisolve(run, /*blocked=*/true, /*compressed=*/true);
        break;
      case Strategy::kAdvancedCoupling:
        run_advanced(run);
        break;
      case Strategy::kMultiFactorization:
        run_multifacto(run, /*compressed=*/false);
        break;
      case Strategy::kMultiFactorizationCompressed:
        run_multifacto(run, /*compressed=*/true);
        break;
      case Strategy::kMultiSolveRandomized:
        run_multisolve_randomized(run);
        break;
    }
    // The runner stored its solvers; move the shared pieces in with them.
    out.tree = std::move(run.tree);
    out.A_sv_tree = std::move(run.A_sv_tree);
  });
}

/// Map the in-flight exception onto the structured taxonomy. Call from a
/// catch block only.
SolveError classify_current_exception() {
  try {
    throw;
  } catch (const ClassifiedError& e) {
    return e.error();
  } catch (const BudgetExceeded& e) {
    return SolveError{ErrorCode::kBudget, "memory", e.what()};
  } catch (const la::SingularMatrix& e) {
    return SolveError{ErrorCode::kSingular, "factor", e.what()};
  } catch (const IoError& e) {
    return SolveError{ErrorCode::kIo, e.site(), e.what()};
  } catch (const std::exception& e) {
    return SolveError{ErrorCode::kInternal, "unexpected", e.what()};
  } catch (...) {
    return SolveError{ErrorCode::kInternal, "unexpected",
                      "unknown exception"};
  }
}

/// Human-readable failure line; keeps the historical "out of memory
/// budget" / "numerical failure" phrasing callers grep for.
std::string failure_text(const SolveError& err) {
  switch (err.code) {
    case ErrorCode::kBudget:
      return "out of memory budget: " + err.detail;
    case ErrorCode::kSingular:
      return "numerical failure: " + err.detail;
    case ErrorCode::kNumericalBreakdown:
      return "numerical breakdown (" + err.site + "): " + err.detail;
    case ErrorCode::kIo:
      return "I/O failure (" + err.site + "): " + err.detail;
    case ErrorCode::kInternal:
      return "internal error (" + err.site + "): " + err.detail;
    case ErrorCode::kNone:
      break;
  }
  return err.detail;
}

/// Record a classified failure in `stats`.
void record_failure(SolveStats& stats, SolveError err) {
  stats.error = std::move(err);
  stats.failure = failure_text(stats.error);
}

/// record_failure for the in-flight exception, marked on the timeline.
/// Call from a catch block only.
void record_current_failure(SolveStats& stats) {
  record_failure(stats, classify_current_exception());
  trace_instant("error", error_code_name(stats.error.code));
}

/// validate_config, recording a complaint as the run's failure.
bool config_accepted(const Config& config, SolveStats& stats) {
  const std::string problem = validate_config(config);
  if (!problem.empty()) record_failure(stats, config_error(problem));
  return problem.empty();
}

/// A handle-level usage error (unfactored handle, mismatched shapes),
/// reported without running anything.
SolveStats rejected(SolveStats stats, const char* detail) {
  record_failure(stats, SolveError{ErrorCode::kInternal, "handle", detail});
  return stats;
}

template <class T>
void set_dimensions(SolveStats& stats, const CoupledSystem<T>& system) {
  stats.n_fem = system.nv();
  stats.n_bem = system.ns();
  stats.n_total = system.total();
}

/// The per-call scaffolding FactoredCoupled::solve and ::solve_lagged
/// share around `body`: a timer, the metrics delta and the failure
/// classification. Deliberately no budget/thread scopes and no retry
/// ladder: a solve must be safe to call concurrently from several threads
/// against one factorization, so it runs entirely in the caller's context
/// and reports any failure without touching global state. The counters
/// are a read-only delta of the process-wide Metrics (concurrent solves
/// may bleed into each other's deltas; each count still happened during
/// this window).
template <class Body>
SolveStats run_solve(SolveStats stats, const Body& body) {
  const Metrics::Values metrics_before = Metrics::instance().values();
  Timer total;
  try {
    body(stats);
    stats.success = true;
  } catch (...) {
    record_current_failure(stats);
  }
  stats.total_seconds = total.seconds();
  stats.counters = Metrics::instance().delta_since(metrics_before);
  return stats;
}

/// Pick one degradation for the failed attempt, mutating the effective
/// config / method flags in place. Returns a static action label, or
/// nullptr when no further degradation applies (the failure is final).
const char* plan_recovery(const SolveError& err, Config& cfg, Degrade& deg,
                          index_t ns) {
  switch (err.code) {
    case ErrorCode::kBudget: {
      // Budget ladder: shrink the transient footprint first (panel widths
      // down / block count up), then trade memory for disk.
      const bool panelled = cfg.strategy == Strategy::kMultiSolve ||
                            cfg.strategy == Strategy::kMultiSolveCompressed;
      if (panelled && cfg.n_c > 8) {
        cfg.n_c = std::max<index_t>(8, cfg.n_c / 2);
        cfg.n_S = std::max<index_t>(cfg.n_c, cfg.n_S / 2);
        return "halve_panels";
      }
      const bool blocked =
          cfg.strategy == Strategy::kMultiFactorization ||
          cfg.strategy == Strategy::kMultiFactorizationCompressed;
      if (blocked && cfg.n_b < ns) {
        cfg.n_b = std::min<index_t>(ns, cfg.n_b * 2);
        return "double_blocks";
      }
      if (!cfg.out_of_core) {
        cfg.out_of_core = true;
        return "enable_ooc";
      }
      return nullptr;
    }
    case ErrorCode::kNumericalBreakdown: {
      // Stalled mixed-precision refinement: the float factors cannot
      // contract the residual (cond(A) * eps_single too large). Escalate
      // to double-precision factors and re-run the whole attempt.
      if (err.site == "refine.stall" &&
          cfg.factor_precision == Precision::kSingle) {
        cfg.factor_precision = Precision::kDouble;
        return "precision_escalate";
      }
      // An unpivoted LDL^T hit a zero pivot; the pivoted LU of the same
      // block may still succeed.
      if (err.site == "hldlt.pivot" && deg.hmat_ldlt_ok) {
        deg.hmat_ldlt_ok = false;
        return "hldlt_to_hlu";
      }
      if (err.site == "mf.front_factor" && deg.sparse_ldlt_ok) {
        deg.sparse_ldlt_ok = false;
        return "sparse_ldlt_to_lu";
      }
      if (err.site == "dense.factor" && deg.dense_ldlt_ok) {
        deg.dense_ldlt_ok = false;
        return "dense_ldlt_to_lu";
      }
      return nullptr;
    }
    case ErrorCode::kIo:
      // A persistent spill-store failure escaped the in-place retries:
      // run in core.
      if (cfg.out_of_core) {
        cfg.out_of_core = false;
        return "disable_ooc";
      }
      return nullptr;
    case ErrorCode::kSingular:
    case ErrorCode::kInternal:
    case ErrorCode::kNone:
      return nullptr;  // genuinely singular / unexpected: final
  }
  return nullptr;
}

/// Degrade-and-retry driver shared by solve_coupled and factorize_coupled:
/// one attempt = factorization (run_strategy) plus the caller-supplied
/// `after` step (the solution phase for solve_coupled, nothing for
/// factorize_coupled). A failure in either part is classified, fed through
/// plan_recovery and retried with the degraded config — exactly the
/// historical whole-run retry semantics. The effective config ends up in
/// impl.cfg.
template <class T>
void run_attempts(const CoupledSystem<T>& system, const Config& config,
                  detail::FactoredImpl<T>& impl, SolveStats& stats,
                  const std::function<void(detail::FactoredImpl<T>&)>& after,
                  SweepContext* sweep = nullptr) {
  Config eff = config;
  Degrade deg;
  const int max_attempts = 1 + (config.auto_recover ? kMaxRecoveryAttempts : 0);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    stats.attempts = attempt;
    stats.factor_precision = eff.factor_precision;
    impl.reset_factors();
    impl.cfg = eff;
    try {
      run_strategy(system, eff, deg, stats, impl, sweep);
      impl.ok = true;
      if (after) after(impl);
      stats.success = true;
      stats.error = SolveError{};
      stats.failure.clear();
      stats.factor_bytes = stats.sparse_factor_bytes + stats.schur_bytes;
      break;
    } catch (...) {
      record_current_failure(stats);
    }
    if (attempt == max_attempts) break;
    const char* action = plan_recovery(stats.error, eff, deg, system.ns());
    if (!action) break;
    stats.recoveries.push_back(
        RecoveryAction{action, error_code_name(stats.error.code),
                       stats.error.site + ": " + stats.error.detail});
    Metrics::instance().add(Metric::kRecoveries, 1);
    if (std::string_view(action) == "precision_escalate")
      Metrics::instance().add(Metric::kPrecisionEscalations, 1);
    trace_instant("recovery", action);
    log_info("recovery: ", action, " after ",
             error_code_name(stats.error.code), " at ", stats.error.site);
  }
  impl.cfg = eff;
  if (!stats.success) impl.reset_factors();
}

/// Planner inputs for the predicted-vs-actual audit, computed *before* the
/// solver session so the symbolic analysis it runs can neither inflate the
/// measured peak nor fail a tight-budget run. Failure (e.g. an ambient
/// budget) degrades to "no audit": factor_entries stays 0 and the predicted
/// bytes are not recorded.
template <class T>
std::optional<PlannerInputs> planner_audit_inputs(
    const CoupledSystem<T>& system, const Config& config) {
  try {
    return planner_inputs(system, config);
  } catch (...) {
    return std::nullopt;
  }
}

/// Record the planner's predicted peak for the *effective* (post-recovery)
/// config: recoveries change n_c/n_S/n_b and can escalate the factor
/// precision, so the scalar size is re-derived from `eff` rather than
/// taken from the pre-run inputs.
template <class T>
void record_planner_audit(const std::optional<PlannerInputs>& inputs,
                          const Config& eff, SolveStats& stats) {
  if (!inputs) return;
  PlannerInputs in = *inputs;
  in.scalar_bytes = with_factor_scalar<T>(
      eff.factor_precision, [](auto scalar) { return sizeof(scalar); });
  stats.planner_predicted_bytes = predict_peak(eff.strategy, in, eff);
}

/// Per-call scaffolding shared by solve_coupled and factorize_coupled:
/// peak reset, budget/thread scopes, metrics, sampler, failpoints, total
/// timer and the end-of-run stat snapshot around `body`.
template <class Body>
void with_solver_session(const Config& config, SolveStats& stats,
                         const char* span_kind, const Body& body) {
  auto& tracker = MemoryTracker::instance();
  tracker.reset_peak();
  ScopedBudget budget(config.memory_budget);
  ScopedNumThreads threads(config.num_threads);

  // Counters are reported as a delta over this call, not a global reset:
  // a sweep runs many solver sessions in one process and each report must
  // carry its own run's counts (and concurrent sessions must not clobber
  // each other's baselines).
  const Metrics::Values metrics_before = Metrics::instance().values();
  // Tracing is the caller's: whoever enabled the process Tracer exports
  // it. While it is on, the session samples the memory timeline under its
  // spans.
  std::optional<TraceSampler> sampler;
  if (Tracer::instance().enabled()) sampler.emplace(kTraceSampleUs);

  // Failpoints are armed once for the whole call, not per attempt: a
  // "once" injection stays spent across retries, so recovery from an
  // injected failure can succeed just like recovery from a real one.
  ScopedFailpoints failpoints(config.failpoints);

  Timer total;
  {
    TraceSpan span(span_kind, strategy_name(config.strategy));
    span.arg("n_total", static_cast<long long>(stats.n_total))
        .arg("n_fem", static_cast<long long>(stats.n_fem))
        .arg("n_bem", static_cast<long long>(stats.n_bem));
    body();
  }  // close the top span before exporting
  stats.total_seconds = total.seconds();
  stats.peak_bytes = tracker.peak();
  // Peak attribution: the per-tag breakdown captured when the high-water
  // mark last advanced. Recorded on failures too -- an OOM report that
  // names the owning subsystem is the whole point of the ledger.
  stats.peak_by_tag.clear();
  const MemTagArray at_peak = tracker.peak_attribution();
  for (std::size_t t = 0; t < kMemTagCount; ++t)
    if (at_peak[t] > 0)
      stats.peak_by_tag.emplace_back(mem_tag_name(static_cast<MemTag>(t)),
                                     at_peak[t]);
  if (stats.planner_predicted_bytes > 0 && stats.peak_bytes > 0)
    stats.planner_misprediction =
        static_cast<double>(stats.planner_predicted_bytes) /
        static_cast<double>(stats.peak_bytes);
  stats.counters = Metrics::instance().delta_since(metrics_before);

  sampler.reset();  // final memory sample, then stop the sampler thread
}

// ---------------------------------------------------------------------------
// Checkpointing (DESIGN.md §14): durable save/load of a FactoredCoupled.
// ---------------------------------------------------------------------------

// The system identity (fembem::SystemFingerprint, fembem/fingerprint.h)
// is shared with the solver-service factorization cache: the factors are
// only valid for the exact system they were computed from, so load checks
// dimensions, sparsity, matrix values and the BEM geometry — not just
// shapes — before trusting a single factor byte.
using fembem::SystemFingerprint;
using fembem::detail::vec_crc;

void write_fingerprint(serialize::Writer& w, const SystemFingerprint& fp) {
  w.write_u32(fp.scalar);
  w.write_i64(fp.nv);
  w.write_i64(fp.ns);
  w.write_i64(fp.nnz_vv);
  w.write_i64(fp.nnz_sv);
  w.write_u8(fp.symmetric);
  w.write_u32(fp.crc_vv);
  w.write_u32(fp.crc_sv);
  w.write_u32(fp.crc_pts);
}

SystemFingerprint read_fingerprint(serialize::Reader& in) {
  SystemFingerprint fp;
  fp.scalar = in.read_u32();
  fp.nv = in.read_i64();
  fp.ns = in.read_i64();
  fp.nnz_vv = in.read_i64();
  fp.nnz_sv = in.read_i64();
  fp.symmetric = in.read_u8();
  fp.crc_vv = in.read_u32();
  fp.crc_sv = in.read_u32();
  fp.crc_pts = in.read_u32();
  return fp;
}

void check_fingerprint(const SystemFingerprint& stored,
                       const SystemFingerprint& live) {
  if (stored.scalar != live.scalar)
    throw ClassifiedError(
        ErrorCode::kIo, "ckpt.scalar",
        "checkpoint scalar type (code " + std::to_string(stored.scalar) +
            ") does not match the requested solver type (code " +
            std::to_string(live.scalar) + ")");
  if (!(stored == live))
    throw ClassifiedError(
        ErrorCode::kIo, "ckpt.fingerprint",
        "checkpoint was created from a different coupled system "
        "(dimension / sparsity / value / geometry fingerprint mismatch)");
}

/// The factorization-shaping Config fields stored in the checkpoint: on
/// load they must match the factors byte for byte, so they come from the
/// file, not the caller. Runtime-only knobs (threads, budget, failpoints,
/// ooc_dir, recovery policy) stay the caller's.
void write_config(serialize::Writer& w, const Config& c) {
  w.write_i32(static_cast<std::int32_t>(c.strategy));
  w.write_i64(c.n_c);
  w.write_i64(c.n_S);
  w.write_i64(c.n_b);
  w.write_u8(c.sparse_compression ? 1 : 0);
  w.write_f64(c.eps);
  w.write_f64(c.eta);
  w.write_i64(c.hmat_leaf);
  w.write_i32(static_cast<std::int32_t>(c.ordering));
  w.write_i32(c.refine_iterations);
  w.write_f64(c.refine_tolerance);
  w.write_i32(static_cast<std::int32_t>(c.factor_precision));
  w.write_u8(c.parallel_fronts ? 1 : 0);
  w.write_u8(c.out_of_core ? 1 : 0);
}

/// A stored enumerator, range-checked against the enumeration's size.
template <class E>
E read_enum(serialize::Reader& in, std::size_t count) {
  const std::int32_t v = in.read_i32();
  if (v < 0 || static_cast<std::size_t>(v) >= count)
    throw ClassifiedError(ErrorCode::kIo, "ckpt.corrupt",
                          "checkpoint config holds an out-of-range "
                          "enumerator (" + std::to_string(v) + ")");
  return static_cast<E>(v);
}

/// A stored blocking parameter, checked to fit index_t before narrowing.
index_t read_index(serialize::Reader& in) {
  const std::int64_t v = in.read_i64();
  if (v < std::numeric_limits<index_t>::min() ||
      v > std::numeric_limits<index_t>::max())
    throw ClassifiedError(ErrorCode::kIo, "ckpt.corrupt",
                          "checkpoint config holds an out-of-range size (" +
                              std::to_string(v) + ")");
  return static_cast<index_t>(v);
}

/// Reads what write_config wrote and validates it like a caller's config,
/// so a well-formed file can never hand a loaded handle a config that
/// factorize_coupled would refuse.
Config read_config(serialize::Reader& in, const Config& runtime) {
  using ordering::Method;
  Config c = runtime;
  c.strategy = read_enum<Strategy>(in, kAllStrategies.size());
  c.n_c = read_index(in);
  c.n_S = read_index(in);
  c.n_b = read_index(in);
  c.sparse_compression = in.read_u8() != 0;
  c.eps = in.read_f64();
  c.eta = in.read_f64();
  c.hmat_leaf = read_index(in);
  c.ordering = read_enum<Method>(
      in, static_cast<std::size_t>(Method::kNestedDissection) + 1);
  c.refine_iterations = in.read_i32();
  c.refine_tolerance = in.read_f64();
  c.factor_precision = read_enum<Precision>(
      in, static_cast<std::size_t>(Precision::kSingle) + 1);
  c.parallel_fronts = in.read_u8() != 0;
  c.out_of_core = in.read_u8() != 0;
  const std::string problem = validate_config(c);
  if (!problem.empty()) {
    // A spill-directory complaint is about the caller's ooc_dir, not the
    // file: keep its ooc.dir classification.
    SolveError err = config_error(problem);
    if (err.code == ErrorCode::kInternal)
      err = SolveError{ErrorCode::kIo, "ckpt.corrupt",
                       "checkpoint holds an invalid config: " + problem};
    throw ClassifiedError(err.code, err.site, err.detail);
  }
  return c;
}

template <class T>
void write_coupling(serialize::Writer& w, const detail::FactoredImpl<T>& f) {
  // CRC of the cluster-tree permutation: load rebuilds the tree from the
  // live geometry and cross-checks it, so a silently different clustering
  // (code change, different leaf size) can never be paired with factors
  // computed in the old tree order.
  w.write_u32(vec_crc(f.tree->tree_of_original()));
  const sparse::Csr<T>& A = f.A_sv_tree;
  w.write_i64(A.rows());
  w.write_i64(A.cols());
  w.write_i64(A.nnz());
  std::vector<std::int64_t> row_len(static_cast<std::size_t>(A.rows()));
  std::vector<index_t> cols;
  std::vector<T> vals;
  cols.reserve(static_cast<std::size_t>(A.nnz()));
  vals.reserve(static_cast<std::size_t>(A.nnz()));
  for (index_t r = 0; r < A.rows(); ++r) {
    row_len[static_cast<std::size_t>(r)] = A.row_end(r) - A.row_begin(r);
    for (offset_t k = A.row_begin(r); k < A.row_end(r); ++k) {
      cols.push_back(A.col(k));
      vals.push_back(A.value(k));
    }
  }
  serialize::write_vec(w, row_len);
  serialize::write_vec(w, cols);
  serialize::write_vec(w, vals);
}

template <class T>
void read_coupling(serialize::Reader& in, const CoupledSystem<T>& sys,
                   detail::FactoredImpl<T>& f) {
  const std::uint32_t stored_perm = in.read_u32();
  if (stored_perm != vec_crc(f.tree->tree_of_original()))
    throw ClassifiedError(
        ErrorCode::kIo, "ckpt.fingerprint",
        "surface cluster tree rebuilt on load does not match the "
        "checkpoint's (geometry or clustering changed since save)");
  const std::int64_t rows = in.read_i64();
  const std::int64_t cols = in.read_i64();
  const std::int64_t nnz = in.read_i64();
  if (rows != sys.ns() || cols != sys.nv() || nnz < 0)
    throw ClassifiedError(ErrorCode::kIo, "ckpt.corrupt",
                          "tree-ordered coupling block shape mismatch");
  const auto row_len = serialize::read_vec<std::int64_t>(in);
  const auto cidx = serialize::read_vec<index_t>(in);
  const auto vals = serialize::read_vec<T>(in);
  if (row_len.size() != static_cast<std::size_t>(rows) ||
      cidx.size() != static_cast<std::size_t>(nnz) ||
      vals.size() != static_cast<std::size_t>(nnz))
    throw ClassifiedError(ErrorCode::kIo, "ckpt.corrupt",
                          "tree-ordered coupling block length mismatch");
  MemoryScope scope(MemTag::kCouplingBlock);
  sparse::Triplets<T> trip(static_cast<index_t>(rows),
                           static_cast<index_t>(cols));
  std::size_t k = 0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t len = row_len[static_cast<std::size_t>(r)];
    if (len < 0 || k + static_cast<std::size_t>(len) > cidx.size())
      throw ClassifiedError(ErrorCode::kIo, "ckpt.corrupt",
                            "tree-ordered coupling row lengths exceed nnz");
    for (std::int64_t e = 0; e < len; ++e, ++k)
      trip.add(static_cast<index_t>(r), cidx[k], vals[k]);
  }
  if (k != static_cast<std::size_t>(nnz))
    throw ClassifiedError(ErrorCode::kIo, "ckpt.corrupt",
                          "tree-ordered coupling row lengths exceed nnz");
  f.A_sv_tree = sparse::Csr<T>::from_triplets(trip);
}

/// Serialize the factors of a successful factorization; throws
/// IoError / ClassifiedError on failure. Section order is load order.
template <class T>
std::size_t save_factored_impl(const detail::FactoredImpl<T>& f,
                               const std::string& path) {
  TraceSpan span("phase", "checkpoint_save");
  serialize::Writer w(path);
  w.begin_section("meta");
  write_fingerprint(w, f.sys->fingerprint());
  w.write_u8(f.mixed() ? 1 : 0);
  w.write_u64(f.fstats.sparse_factor_bytes);
  w.write_u64(f.fstats.schur_bytes);
  w.write_f64(f.fstats.schur_compression_ratio);
  w.write_i64(f.fstats.randomized_rank);
  w.end_section();
  w.begin_section("config");
  write_config(w, f.cfg);
  w.end_section();
  w.begin_section("coupling");
  write_coupling(w, f);
  w.end_section();
  f.with_bank([&](const auto& bank) {
    w.begin_section("interior");
    bank.interior.save(w);
    w.end_section();
    w.begin_section("schur");
    // Schur factorization tag: 1 = dense, 2 = H.
    w.write_u8(static_cast<std::uint8_t>(bank.schur.index() + 1));
    std::visit([&](const auto& s) { s.save(w); }, bank.schur);
    w.end_section();
  });
  return w.commit();
}

/// Reconstruct the factored state from a verified checkpoint; throws the
/// classified error on any integrity or compatibility failure. Returns
/// the checkpoint file size.
template <class T>
std::size_t load_factored_impl(const std::string& path,
                               const CoupledSystem<T>& system,
                               const Config& runtime,
                               detail::FactoredImpl<T>& f,
                               SolveStats& stats) {
  serialize::Reader in(path);  // verifies trailer, footer, every CRC

  in.open_section("meta");
  check_fingerprint(read_fingerprint(in), system.fingerprint());
  const bool single = in.read_u8() != 0;
  stats.sparse_factor_bytes = static_cast<std::size_t>(in.read_u64());
  stats.schur_bytes = static_cast<std::size_t>(in.read_u64());
  stats.schur_compression_ratio = in.read_f64();
  stats.randomized_rank = static_cast<index_t>(in.read_i64());

  in.open_section("config");
  f.cfg = read_config(in, runtime);
  if (single != (f.cfg.factor_precision == Precision::kSingle))
    throw ClassifiedError(ErrorCode::kIo, "ckpt.corrupt",
                          "checkpoint precision flag disagrees with its "
                          "stored factor_precision");
  stats.factor_precision = f.cfg.factor_precision;

  // The cluster tree is rebuilt deterministically from the live geometry;
  // the coupling section cross-checks its permutation against the save.
  f.tree = std::make_shared<const ClusterTree>(system.surface_points(),
                                               f.cfg.hmat_leaf);

  in.open_section("coupling");
  read_coupling(in, system, f);

  in.open_section("interior");
  with_factor_scalar<T>(f.cfg.factor_precision, [&](auto scalar) {
    using ST = decltype(scalar);
    auto& bank = f.factors.template emplace<detail::Factors<ST>>();
    bank.interior.load(in, runtime.ooc_dir);
    in.open_section("schur");
    const std::uint8_t tag = in.read_u8();
    if (tag == 1) {
      std::get<0>(bank.schur).load(in);
    } else if (tag == 2) {
      bank.schur.template emplace<1>(
          HMatrix<ST>::load(*f.tree, *f.tree, h_options(f.cfg), in));
    } else {
      throw ClassifiedError(ErrorCode::kIo, "ckpt.corrupt",
                            "unknown Schur factor bank tag in checkpoint");
    }
  });
  stats.factor_bytes = stats.sparse_factor_bytes + stats.schur_bytes;
  return in.file_bytes();
}

/// A fresh handle state for `system`, before any factorization or load.
template <class T>
std::unique_ptr<detail::FactoredImpl<T>> new_impl(
    const CoupledSystem<T>& system, const Config& config) {
  auto impl = std::make_unique<detail::FactoredImpl<T>>();
  impl->sys = &system;
  impl->cfg = config;
  set_dimensions(impl->fstats, system);
  return impl;
}

}  // namespace

template <class T>
SolveStats solve_coupled(const CoupledSystem<T>& system,
                         const Config& config) {
  SolveStats stats;
  set_dimensions(stats, system);
  if (!config_accepted(config, stats)) return stats;

  detail::FactoredImpl<T> impl;
  impl.sys = &system;
  const auto audit_in = planner_audit_inputs(system, config);
  with_solver_session(config, stats, "solve", [&] {
    run_attempts<T>(system, config, impl, stats,
                    [&](detail::FactoredImpl<T>& f) {
                      // One-column batch from the system's built-in RHS,
                      // solved in place.
                      MemoryScope scope(MemTag::kRhsWorkspace);
                      la::Vector<T> xv = system.b_v, xs = system.b_s;
                      stats.nrhs = 1;
                      solve_batch(f, xv.as_matrix(), xs.as_matrix(), stats);
                      stats.relative_error = system.relative_error(xv, xs);
                    });
    record_planner_audit<T>(audit_in, impl.cfg, stats);
  });
  return stats;
}

template <class T>
FactoredCoupled<T> factorize_coupled(const CoupledSystem<T>& system,
                                     const Config& config,
                                     SweepContext* sweep) {
  FactoredCoupled<T> handle;
  handle.impl_ = new_impl(system, config);
  detail::FactoredImpl<T>& impl = *handle.impl_;
  SolveStats& stats = impl.fstats;
  if (!config_accepted(config, stats)) return handle;

  const auto audit_in = planner_audit_inputs(system, config);
  with_solver_session(config, stats, "factorize", [&] {
    run_attempts<T>(system, config, impl, stats, nullptr, sweep);
    record_planner_audit<T>(audit_in, impl.cfg, stats);
  });
  return handle;
}

// -- FactoredCoupled ---------------------------------------------------------

template <class T>
FactoredCoupled<T>::FactoredCoupled() = default;
template <class T>
FactoredCoupled<T>::~FactoredCoupled() = default;
template <class T>
FactoredCoupled<T>::FactoredCoupled(FactoredCoupled&&) noexcept = default;
template <class T>
FactoredCoupled<T>& FactoredCoupled<T>::operator=(FactoredCoupled&&) noexcept =
    default;

template <class T>
bool FactoredCoupled<T>::ok() const {
  return impl_ != nullptr && impl_->ok;
}

template <class T>
const SolveStats& FactoredCoupled<T>::stats() const {
  static const SolveStats empty;
  return impl_ ? impl_->fstats : empty;
}

template <class T>
const Config& FactoredCoupled<T>::config() const {
  static const Config defaults;
  return impl_ ? impl_->cfg : defaults;
}

template <class T>
index_t FactoredCoupled<T>::nv() const {
  return impl_ && impl_->sys ? impl_->sys->nv() : 0;
}

template <class T>
index_t FactoredCoupled<T>::ns() const {
  return impl_ && impl_->sys ? impl_->sys->ns() : 0;
}

template <class T>
SolveStats FactoredCoupled<T>::solve(la::MatrixView<T> B_v,
                                     la::MatrixView<T> B_s) const {
  SolveStats stats;
  stats.nrhs = B_v.cols();
  if (!ok()) return rejected(stats, "solve on an unfactored handle");
  set_dimensions(stats, *impl_->sys);
  stats.factor_precision = impl_->cfg.factor_precision;
  if (B_v.cols() != B_s.cols() || B_v.rows() != impl_->sys->nv() ||
      B_s.rows() != impl_->sys->ns())
    return rejected(stats, "right-hand-side block shape mismatch");
  return run_solve(stats, [&](SolveStats& st) {
    solve_batch(*impl_, B_v, B_s, st);
  });
}

template <class T>
SolveStats FactoredCoupled<T>::solve_lagged(
    const fembem::CoupledSystem<T>& target, la::MatrixView<T> B_v,
    la::MatrixView<T> B_s) const {
  SolveStats stats;
  stats.nrhs = B_v.cols();
  if (!ok()) return rejected(stats, "solve_lagged on an unfactored handle");
  set_dimensions(stats, target);
  stats.factor_precision = impl_->cfg.factor_precision;
  if (target.nv() != impl_->sys->nv() || target.ns() != impl_->sys->ns())
    return rejected(stats,
                    "target system shape differs from the factored system");
  if (B_v.cols() != B_s.cols() || B_v.rows() != target.nv() ||
      B_s.rows() != target.ns())
    return rejected(stats, "right-hand-side block shape mismatch");
  // Lagged refinement without a convergence target would silently return
  // the neighboring frequency's answer.
  if (!(impl_->cfg.refine_tolerance > 0) || impl_->cfg.refine_iterations < 1)
    return rejected(stats,
                    "solve_lagged requires refine_tolerance > 0 and "
                    "refine_iterations >= 1");
  // Armed like save(): the refine.stall failpoint must be able to force
  // the fallback path deterministically in the sweep tests.
  ScopedFailpoints failpoints(impl_->cfg.failpoints);
  BatchOverride<T> ov;
  ov.residual_sys = &target;
  ov.refine_iterations = impl_->cfg.refine_iterations;
  // Two decades below the configured bar: a fresh solve's last sweep
  // overshoots the tolerance by its (fast) contraction factor, while the
  // slowly-contracting lagged iteration halts right at it — leaving a
  // forward error a full kappa(A) above the fresh path. Aiming lower
  // equalizes the two, so a sweep's accuracy does not depend on which
  // tier served each frequency.
  ov.refine_tolerance = 0.01 * impl_->cfg.refine_tolerance;
  return run_solve(stats, [&](SolveStats& st) {
    Metrics::instance().add(Metric::kLaggedSolves, 1);
    solve_batch(*impl_, B_v, B_s, st, &ov);
  });
}

template <class T>
std::size_t FactoredCoupled<T>::save(const std::string& path,
                                     SolveError* error) const {
  if (error) *error = SolveError{};
  if (!ok()) {
    if (error)
      *error = SolveError{ErrorCode::kInternal, "handle",
                          "save on an unfactored handle"};
    return 0;
  }
  // Failpoints armed exactly like a solver session, so cfg.failpoints /
  // CS_FAILPOINTS drive the ckpt.* crash-injection sites during the save.
  ScopedFailpoints failpoints(impl_->cfg.failpoints);
  try {
    return save_factored_impl(*impl_, path);
  } catch (...) {
    const SolveError err = classify_current_exception();
    trace_instant("error", error_code_name(err.code));
    log_info("checkpoint save failed (", err.site, "): ", err.detail);
    if (error) *error = err;
    return 0;
  }
}

template <class T>
FactoredCoupled<T> load_factored(const std::string& path,
                                 const CoupledSystem<T>& system,
                                 const Config& config) {
  FactoredCoupled<T> handle;
  handle.impl_ = new_impl(system, config);
  detail::FactoredImpl<T>& impl = *handle.impl_;
  SolveStats& stats = impl.fstats;
  // The caller's config governs the checkpoint_fallback refactorization,
  // so it is validated exactly like a factorize_coupled config.
  if (!config_accepted(config, stats)) return handle;

  const auto audit_in = planner_audit_inputs(system, config);
  with_solver_session(config, stats, "load", [&] {
    try {
      auto phase = Timed::phase(stats, "checkpoint_load");
      const std::size_t bytes =
          load_factored_impl(path, system, config, impl, stats);
      impl.ok = true;
      stats.success = true;
      stats.attempts = 1;
      stats.checkpoint_source = "checkpoint";
      stats.checkpoint_bytes = bytes;
    } catch (...) {
      record_current_failure(stats);
      // Drop anything the partial load produced, including any stats the
      // meta section primed before the failure surfaced.
      impl.reset_factors();
      impl.cfg = config;
      stats.sparse_factor_bytes = 0;
      stats.schur_bytes = 0;
      stats.schur_compression_ratio = 0;
      stats.randomized_rank = 0;
      stats.factor_bytes = 0;
    }
    if (!impl.ok && config.auto_recover) {
      // checkpoint_fallback rung of the recovery ladder: the checkpoint is
      // unusable (missing, torn, corrupt, or for a different system), so
      // refactorize from the live system under the caller's config — the
      // answer stays correct, only the restart speedup is lost.
      stats.recoveries.push_back(RecoveryAction{
          "checkpoint_fallback", error_code_name(stats.error.code),
          stats.error.site + ": " + stats.error.detail});
      Metrics::instance().add(Metric::kRecoveries, 1);
      trace_instant("recovery", "checkpoint_fallback");
      log_info("recovery: checkpoint_fallback after ",
               error_code_name(stats.error.code), " at ", stats.error.site);
      run_attempts<T>(system, config, impl, stats, nullptr);
      if (stats.success) stats.checkpoint_source = "refactorized";
      record_planner_audit<T>(audit_in, impl.cfg, stats);
    }
  });
  return handle;
}

template SolveStats solve_coupled<double>(const CoupledSystem<double>&,
                                          const Config&);
template SolveStats solve_coupled<complexd>(const CoupledSystem<complexd>&,
                                            const Config&);
template FactoredCoupled<double> factorize_coupled<double>(
    const CoupledSystem<double>&, const Config&, SweepContext*);
template FactoredCoupled<complexd> factorize_coupled<complexd>(
    const CoupledSystem<complexd>&, const Config&, SweepContext*);
template FactoredCoupled<double> load_factored<double>(
    const std::string&, const CoupledSystem<double>&, const Config&);
template FactoredCoupled<complexd> load_factored<complexd>(
    const std::string&, const CoupledSystem<complexd>&, const Config&);
template class FactoredCoupled<double>;
template class FactoredCoupled<complexd>;

}  // namespace cs::coupled
