// The paper's contribution: direct solution strategies for coupled
// sparse/dense FEM/BEM systems composed from unmodified sparse and dense
// direct solvers.
//
//  * kBaselineCoupling   (paper section II-E): factor A_vv, one huge sparse
//    solve A_vv^{-1} A_sv^T retrieved dense, SpMM, dense Schur S.
//  * kAdvancedCoupling   (paper section II-F): one sparse
//    factorization+Schur call on [[A_vv, A_sv^T],[A_sv, 0]]; the Schur
//    complement still comes back as one non-compressed dense matrix.
//  * kMultiSolve         (Algorithm 1): the sparse solve is blocked into
//    panels of n_c columns; S is accumulated panel by panel (dense S,
//    MUMPS/SPIDO-style coupling).
//  * kMultiSolveCompressed (Algorithm 2): same blocking, but A_ss is
//    assembled directly compressed (ACA) into an H-matrix and each dense
//    panel Z_i is folded in with a compressed AXPY; a separate panel width
//    n_S amortizes recompression (MUMPS/HMAT-style coupling).
//  * kMultiFactorization (Algorithm 3): S computed in n_b x n_b square
//    blocks, each via a sparse factorization+Schur call on the unsymmetric
//    W = [[A_vv, A_sv(j)^T],[A_sv(i), 0]] - re-factorizing A_vv every call
//    (the API limitation the paper works around).
//  * kMultiFactorizationCompressed: ditto with the compressed AXPY into an
//    H-matrix S.
//
// The system's symmetry picks how the interior sparse factors and the
// dense or H-matrix Schur complement are factored: LDL^T on a symmetric
// system, LU otherwise. An LDL^T pivot breakdown retries with LU through
// the degrade-and-retry driver.
//
// All strategies share the same finishing sequence (paper eq. (7)) and
// report phase times, tracked peak memory and the relative error against
// the manufactured solution, which is exactly the data behind the paper's
// figures 10-13 and Table II.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/fs.h"
#include "common/memory.h"
#include "common/timer.h"
#include "fembem/system.h"
#include "la/matrix.h"
#include "ordering/ordering.h"

namespace cs::coupled {

enum class Strategy {
  kBaselineCoupling,
  kAdvancedCoupling,
  kMultiSolve,
  kMultiSolveCompressed,
  kMultiFactorization,
  kMultiFactorizationCompressed,
  /// Extension (the paper's future-work item): the Schur correction
  /// A_sv A_vv^{-1} A_sv^T is produced *directly in compressed form* by a
  /// two-pass randomized range finder with adaptive rank, instead of
  /// streaming dense blocks out of the sparse solver. Pays off when the
  /// coupling operator has fast-decaying global spectrum.
  kMultiSolveRandomized,
};

/// Every strategy, in enumeration order.
inline constexpr std::array<Strategy, 7> kAllStrategies = {
    Strategy::kBaselineCoupling,     Strategy::kAdvancedCoupling,
    Strategy::kMultiSolve,           Strategy::kMultiSolveCompressed,
    Strategy::kMultiFactorization,   Strategy::kMultiFactorizationCompressed,
    Strategy::kMultiSolveRandomized,
};

const char* strategy_name(Strategy s);
/// Inverse of strategy_name: nullopt for a name no strategy has.
std::optional<Strategy> strategy_from_name(std::string_view name);

/// Working precision of the *stored factors* (interior multifrontal
/// factors, dense/H-matrix Schur factorization). kSingle halves every
/// factor byte — roughly 2x memory headroom and effective bandwidth —
/// while operators, right-hand sides, residuals and iterative refinement
/// stay in the input precision, which recovers full accuracy for
/// reasonably conditioned systems (cond(A) * eps_single < 1).
enum class Precision {
  kDouble,
  kSingle,
};

const char* precision_name(Precision p);

struct Config {
  Strategy strategy = Strategy::kMultiSolveCompressed;

  // Blocking parameters (paper notation).
  index_t n_c = 256;   ///< sparse-solve RHS panel width (multi-solve)
  index_t n_S = 1024;  ///< Schur panel width (compressed multi-solve)
  index_t n_b = 2;     ///< Schur blocks per dimension (multi-factorization)

  // Compression.
  bool sparse_compression = true;  ///< BLR in the sparse solver
  double eps = 1e-3;               ///< low-rank accuracy (sparse and dense)
  double eta = 2.0;                ///< H-matrix admissibility
  index_t hmat_leaf = 64;          ///< H-matrix cluster leaf size

  /// Virtual memory budget in bytes (0 = unlimited). Exceeding it makes
  /// the run fail like the paper's out-of-memory runs.
  std::size_t memory_budget = 0;

  ordering::Method ordering = ordering::Method::kNestedDissection;

  /// Iterative refinement sweeps on the coupled system after the direct
  /// solve (recovers accuracy lost to aggressive compression; 0 = off).
  int refine_iterations = 0;

  /// Early-exit threshold for iterative refinement: stop sweeping once
  /// every column's relative coupled residual is <= this value (0 = run
  /// all refine_iterations sweeps, the historical behavior). The
  /// mixed-precision stall detector also treats this as the accuracy the
  /// refinement must keep making progress towards.
  double refine_tolerance = 0.0;

  /// Working precision of the stored factors. kSingle requires
  /// refine_iterations >= 1 (validate_config enforces this): without the
  /// double-precision refinement sweeps the solve would silently return
  /// ~1e-6-accurate answers. A refinement stall under single-precision
  /// factors is a recoverable numerical breakdown: the degrade-and-retry
  /// driver re-factorizes in double ("precision_escalate").
  Precision factor_precision = Precision::kDouble;

  /// Worker threads for the task-parallel execution layer (H-matrix leaf
  /// loops, H-LU tasks, block-parallel multi-factorization and the
  /// multifrontal tree walk). 0 = hardware
  /// default (omp_get_max_threads()). Results are identical to a serial
  /// run for every value.
  int num_threads = 0;

  /// Task-parallel multifrontal tree walk in the sparse solver (results
  /// identical to the serial walk).
  bool parallel_fronts = true;

  // -- resilience (see DESIGN.md §9) ---------------------------------------

  /// Degrade-and-retry: when a solve attempt fails with a recoverable
  /// error, apply a recovery action (halve n_c/n_S, double n_b, enable
  /// out-of-core factors, fall back from LDL^T to LU, disable OOC after
  /// I/O failures) and retry, up to 8 extra attempts. Every action taken
  /// is recorded in SolveStats::recoveries. Off: the first failure is
  /// final (the paper's feasibility-probe behavior).
  bool auto_recover = true;

  /// Start with out-of-core sparse factors (border panels spilled to
  /// ooc_dir; see sparsedirect::SolverOptions). auto_recover may also
  /// enable this mid-run as a budget-recovery action.
  bool out_of_core = false;
  /// Spill directory ($TMPDIR when set, else /tmp). validate_config
  /// rejects a missing or unwritable directory up front — a daemon must
  /// fail at startup, not minutes into a request at first spill.
  std::string ooc_dir = default_tmp_dir();

  /// Failpoint spec armed for the duration of the solve, e.g.
  /// "ooc.write=hit:2,aca.converge=once" (see common/failpoint.h; the
  /// CS_FAILPOINTS environment variable is honored in addition).
  std::string failpoints;
};

/// Returns "" when `config` is usable, else a description of the first
/// invalid field. solve_coupled runs this up front and reports a
/// structured kInternal error instead of hitting undefined behavior.
std::string validate_config(const Config& config);

/// One degrade-and-retry action taken by the resilient driver.
struct RecoveryAction {
  std::string action;  ///< "halve_panels", "enable_ooc", "hldlt_to_hlu"...
  std::string error;   ///< error code name that triggered it
  std::string detail;  ///< site + message of the failure recovered from
};

struct SolveStats {
  bool success = false;
  std::string failure;  ///< human-readable failure description ("" on
                        ///< success, even after recoveries)

  /// Structured failure classification (code == kNone on success). After
  /// a successful recovery the error of the failed attempt is cleared;
  /// the recovery trail below keeps what happened.
  SolveError error;
  /// Degrade-and-retry actions taken, in order (empty when the first
  /// attempt succeeded).
  std::vector<RecoveryAction> recoveries;
  /// Solve attempts run (1 = no retry). Phase/stage times accumulate
  /// across attempts: they report the work actually done.
  int attempts = 1;

  double total_seconds = 0;
  PhaseTimes phases;  ///< sparse_factorization / schur / dense_factorization
                      ///< / solution
  /// Finer, dotted per-stage breakdown inside the phases (e.g.
  /// schur.panel_solve, schur.spmm, schur.axpy, multifacto.factor,
  /// solution.refine). Stages timed on concurrent workers or nested inside
  /// one another can sum to more than the phase time.
  PhaseTimes stages;
  /// Run counter summary (common/trace.h Metrics): admission decisions,
  /// panels folded, recompression counts and max achieved rank...
  std::map<std::string, double> counters;

  std::size_t peak_bytes = 0;          ///< tracked peak over the whole run
  std::size_t schur_bytes = 0;         ///< storage of S (dense or H)
  std::size_t sparse_factor_bytes = 0;
  /// Total factor storage (sparse factors + Schur factorization) in the
  /// effective factor precision; single-precision factors show up as
  /// roughly half the double-precision figure.
  std::size_t factor_bytes = 0;

  /// Per-tag attribution of peak_bytes: the ledger snapshot captured when
  /// the global high-water mark last advanced, as (tag name, bytes) pairs
  /// for the non-zero tags. Entries other than the budget-exempt
  /// "pack.scratch" sum to peak_bytes within slack (the capture races
  /// concurrent allocators by design).
  std::vector<std::pair<std::string, std::size_t>> peak_by_tag;
  /// Planner audit: planner::predict_peak evaluated with the *effective*
  /// (post-recovery) config, and its ratio against the measured peak
  /// (predicted / measured; 0 when either side is unknown). Validates the
  /// planner's empirical constants on every instrumented run.
  std::size_t planner_predicted_bytes = 0;
  double planner_misprediction = 0;
  double schur_compression_ratio = 1.0;  ///< stored / dense for S

  /// Effective working precision of the stored factors after any
  /// precision_escalate recovery (may differ from the requested
  /// Config::factor_precision).
  Precision factor_precision = Precision::kDouble;

  double relative_error = -1.0;
  index_t n_total = 0, n_fem = 0, n_bem = 0;

  /// kMultiSolveRandomized: rank found by the adaptive range finder.
  index_t randomized_rank = 0;

  /// Right-hand-side columns this solve handled (0 for a factorize-only
  /// run; solve_coupled reports 1).
  index_t nrhs = 0;
  /// Per-column relative residual of the coupled system after the last
  /// iterative-refinement sweep (empty when refine_iterations == 0).
  std::vector<double> refine_residuals;
  /// Refinement sweeps that actually applied a correction in the
  /// successful solve (early exit on refine_tolerance may make this
  /// smaller than refine_iterations).
  int refine_sweeps = 0;

  /// Checkpoint provenance of this handle: "" for a fresh factorization,
  /// "checkpoint" when restored by load_factored, "refactorized" when a
  /// checkpoint load failed and the checkpoint_fallback rung refactorized
  /// from the live system.
  std::string checkpoint_source;
  /// On-disk size of the checkpoint this handle was restored from (0 when
  /// checkpoint_source != "checkpoint").
  std::size_t checkpoint_bytes = 0;
};

namespace detail {
template <class T>
struct FactoredImpl;
}  // namespace detail

/// Recyclable state shared by the solves of one frequency sweep (owned by
/// sweep::SweepDriver, threaded through factorize_coupled). Defined in
/// sweep.h; factorize_coupled treats a null pointer as "no sweep".
class SweepContext;

/// Persistent factorization of a coupled system: the interior multifrontal
/// factors, the (dense or H-) Schur factorization, the BEM cluster
/// permutation and the tree-ordered coupling block, kept alive so one
/// factorization can serve many right-hand sides (the paper's industrial
/// usage: one factorization per frequency, hundreds of excitations).
///
/// Lifetime: the handle borrows the CoupledSystem passed to
/// factorize_coupled (refinement re-applies the original operator), so the
/// system must outlive the handle. Obtain one with factorize_coupled; a
/// default-constructed handle is empty (ok() == false).
///
/// Thread safety: solve() is const and touches only immutable factorization
/// state (the out-of-core panel store serializes its file access
/// internally), so independent batches may call solve() concurrently from
/// multiple threads against one handle. Each call solves in the calling
/// thread's context: it installs no memory budget and no thread count of
/// its own, and — unlike solve_coupled — never retries; a failure is
/// classified into the returned SolveStats and the RHS block is left
/// unspecified.
template <class T>
class FactoredCoupled {
 public:
  FactoredCoupled();
  ~FactoredCoupled();
  FactoredCoupled(FactoredCoupled&&) noexcept;
  FactoredCoupled& operator=(FactoredCoupled&&) noexcept;
  FactoredCoupled(const FactoredCoupled&) = delete;
  FactoredCoupled& operator=(const FactoredCoupled&) = delete;

  /// True when the handle holds a usable factorization.
  bool ok() const;
  /// Stats of the factorization run (attempts, recoveries, phase times,
  /// memory; nrhs == 0 since no RHS was solved). Meaningful even when
  /// ok() is false: it carries the classified factorization error.
  const SolveStats& stats() const;
  /// Effective configuration after degrade-and-retry (panel sizes, OOC,
  /// factor precision may differ from the requested Config).
  const Config& config() const;

  index_t nv() const;  ///< interior (FEM) unknowns
  index_t ns() const;  ///< boundary (BEM) unknowns

  /// Solve the factored system for a block of right-hand sides, in place:
  /// on entry B_v (nv x nrhs) / B_s (ns x nrhs) hold the RHS columns, on
  /// success they hold the solution. Both views must have the same number
  /// of columns. Per-column results are bitwise identical to nrhs
  /// independent single-column solves at any thread count. Never throws.
  SolveStats solve(la::MatrixView<T> B_v, la::MatrixView<T> B_s) const;

  /// Frequency-lagged solve: use this handle's factors — computed for a
  /// *neighboring* operator of the same family — as the direct
  /// preconditioner, and iteratively refine against `target` (residuals
  /// are formed with the target operator, corrections solved with the
  /// retained factors). Converges when the spectral distance between the
  /// two operators is small, letting a sweep skip a fresh factorization;
  /// when refinement stalls or misses config().refine_tolerance within
  /// config().refine_iterations sweeps, the returned stats carry a
  /// kNumericalBreakdown at site "refine.stall" and the caller should
  /// factorize the target afresh. `target` must have the same dimensions
  /// as the factored system. Never throws.
  SolveStats solve_lagged(const fembem::CoupledSystem<T>& target,
                          la::MatrixView<T> B_v, la::MatrixView<T> B_s) const;

  /// Serialize the factored state to a crash-consistent checkpoint file
  /// (CRC32C-checksummed sections, manifest footer fsynced last as the
  /// commit record; see DESIGN.md §14). Returns the bytes written, or 0 on
  /// failure with the classified error in *error (when non-null). Never
  /// throws. A failed save may leave a torn file at `path`; load_factored
  /// detects and rejects it.
  std::size_t save(const std::string& path, SolveError* error = nullptr)
      const;

 private:
  template <class U>
  friend FactoredCoupled<U> factorize_coupled(
      const fembem::CoupledSystem<U>& system, const Config& config,
      SweepContext* sweep);
  template <class U>
  friend FactoredCoupled<U> load_factored(
      const std::string& path, const fembem::CoupledSystem<U>& system,
      const Config& config);

  std::unique_ptr<detail::FactoredImpl<T>> impl_;
};

/// Factorization phase of solve_coupled: runs the selected strategy's
/// analysis + factorization (including the degrade-and-retry driver,
/// tracing, metrics and memory accounting) and returns a persistent handle
/// instead of solving a built-in RHS. On failure the returned handle has
/// ok() == false and stats() carries the classified error. The system must
/// outlive the handle.
///
/// `sweep` (optional) is the recycling context of a frequency sweep: when
/// given, the symbolic sparse analysis, the BEM cluster tree and the
/// H-matrix block skeleton (with converged-rank warm starts) are reused
/// from — and recorded for — the other frequencies of the family. The
/// context must outlive every handle factored with it (it owns the shared
/// cluster tree). Reuse is keyed and validated, so a mismatching system
/// silently degrades to a cold factorization.
template <class T>
FactoredCoupled<T> factorize_coupled(const fembem::CoupledSystem<T>& system,
                                     const Config& config,
                                     SweepContext* sweep = nullptr);

/// Restore a FactoredCoupled handle from a checkpoint written by
/// FactoredCoupled::save. The format version, scalar type, system
/// fingerprint (dimensions, sparsity, matrix values, BEM geometry) and
/// every section's CRC32C are verified before any byte is trusted; the
/// restored handle's solve() is bitwise identical to the originating
/// handle's. `system` must be the same coupled system the checkpoint was
/// created from (it is borrowed, exactly as by factorize_coupled) and
/// `config` supplies the runtime-only settings (threads, budget,
/// failpoints, ooc_dir, recovery policy); the factorization-shaping fields
/// come from the checkpoint. Never throws. On a missing/torn/corrupt/
/// mismatched checkpoint: with config.auto_recover the checkpoint_fallback
/// recovery rung refactorizes from the live system (recorded in
/// SolveStats::recoveries, metrics and trace); without it the returned
/// handle has ok() == false and stats() carries the classified error.
template <class T>
FactoredCoupled<T> load_factored(const std::string& path,
                                 const fembem::CoupledSystem<T>& system,
                                 const Config& config);

/// Run one strategy on a coupled system. Never throws: every failure
/// (budget, singularity, numerical breakdown, OOC I/O, invalid config) is
/// classified into SolveStats::error, and — with Config::auto_recover —
/// recoverable failures trigger a bounded degrade-and-retry loop whose
/// actions are recorded in SolveStats::recoveries. Tracked memory returns
/// to its pre-call level on every failure path.
///
/// Equivalent to factorize_coupled + one FactoredCoupled::solve on the
/// system's built-in RHS (b_v, b_s); use those directly to amortize one
/// factorization across many right-hand sides.
template <class T>
SolveStats solve_coupled(const fembem::CoupledSystem<T>& system,
                         const Config& config);

}  // namespace cs::coupled
