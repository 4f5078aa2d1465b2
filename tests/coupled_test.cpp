// Integration tests of the paper's coupled solution strategies: every
// strategy must recover the manufactured solution of the pipe FEM/BEM
// system within the compression accuracy, on both the real symmetric
// academic case and the complex non-symmetric industrial-like case, and
// the memory/failure accounting must behave like the paper's experiments.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

#include "common/parallel.h"
#include "common/trace.h"
#include "coupled/coupled.h"

namespace cs::coupled {
namespace {

using fembem::CoupledSystem;
using fembem::SystemParams;

SystemParams real_params(index_t n) {
  SystemParams p;
  p.total_unknowns = n;
  return p;
}

SystemParams complex_params(index_t n) {
  SystemParams p;
  p.total_unknowns = n;
  p.kappa = 1.0;
  p.sigma_real = 2.0;
  p.sigma_imag = 0.3;
  p.symmetric_bem = false;
  p.extra_surface_ratio = 0.5;
  return p;
}

const CoupledSystem<double>& real_system() {
  static auto sys = fembem::make_pipe_system<double>(real_params(3000));
  return sys;
}

const CoupledSystem<complexd>& complex_system() {
  static auto sys =
      fembem::make_pipe_system<complexd>(complex_params(2200));
  return sys;
}

class StrategySweep : public ::testing::TestWithParam<Strategy> {};

TEST_P(StrategySweep, RealPipeRecoversSolutionWithinEps) {
  Config cfg;
  cfg.strategy = GetParam();
  cfg.eps = 1e-4;
  cfg.n_c = 64;
  cfg.n_S = 160;
  cfg.n_b = 2;
  auto stats = solve_coupled(real_system(), cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_LT(stats.relative_error, 1e-3) << strategy_name(GetParam());
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GT(stats.peak_bytes, 0u);
  EXPECT_GT(stats.schur_bytes, 0u);
  EXPECT_EQ(stats.n_total, real_system().total());
}

TEST_P(StrategySweep, ComplexIndustrialRecoversSolutionWithinEps) {
  Config cfg;
  cfg.strategy = GetParam();
  cfg.eps = 1e-4;
  cfg.n_c = 64;
  cfg.n_S = 160;
  cfg.n_b = 2;
  auto stats = solve_coupled(complex_system(), cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_LT(stats.relative_error, 1e-3) << strategy_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategySweep,
    ::testing::Values(Strategy::kBaselineCoupling, Strategy::kAdvancedCoupling,
                      Strategy::kMultiSolve, Strategy::kMultiSolveCompressed,
                      Strategy::kMultiFactorization,
                      Strategy::kMultiFactorizationCompressed),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      std::string name = strategy_name(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Coupled, AllStrategiesAgreeWithEachOther) {
  // Beyond matching the manufactured solution, the six strategies must
  // agree pairwise (they compute the same Schur complement by different
  // block schedules).
  Config cfg;
  cfg.eps = 1e-5;
  cfg.n_c = 48;
  cfg.n_S = 96;
  cfg.n_b = 3;
  double err_min = 1e9, err_max = -1e9;
  for (Strategy s :
       {Strategy::kBaselineCoupling, Strategy::kAdvancedCoupling,
        Strategy::kMultiSolve, Strategy::kMultiSolveCompressed,
        Strategy::kMultiFactorization,
        Strategy::kMultiFactorizationCompressed}) {
    cfg.strategy = s;
    auto stats = solve_coupled(real_system(), cfg);
    ASSERT_TRUE(stats.success) << strategy_name(s) << ": " << stats.failure;
    err_min = std::min(err_min, stats.relative_error);
    err_max = std::max(err_max, stats.relative_error);
  }
  // All errors within a band of the compression accuracy.
  EXPECT_LT(err_max, 1e-4);
  EXPECT_GE(err_min, 0.0);
}

TEST(Coupled, CompressedSchurUsesLessMemoryThanDense) {
  Config dense_cfg;
  dense_cfg.strategy = Strategy::kMultiSolve;
  dense_cfg.n_c = 64;
  Config comp_cfg = dense_cfg;
  comp_cfg.strategy = Strategy::kMultiSolveCompressed;
  comp_cfg.n_S = 256;

  auto dense_stats = solve_coupled(real_system(), dense_cfg);
  auto comp_stats = solve_coupled(real_system(), comp_cfg);
  ASSERT_TRUE(dense_stats.success);
  ASSERT_TRUE(comp_stats.success);
  EXPECT_LT(comp_stats.schur_bytes, dense_stats.schur_bytes);
  EXPECT_LT(comp_stats.schur_compression_ratio, 1.0);
}

TEST(Coupled, BudgetFailureIsReportedNotThrown) {
  Config cfg;
  cfg.strategy = Strategy::kAdvancedCoupling;  // the most memory-hungry
  cfg.auto_recover = false;  // feasibility probe: first failure is final
  cfg.memory_budget = MemoryTracker::instance().current() + 4 * 1024 * 1024;
  auto stats = solve_coupled(real_system(), cfg);
  EXPECT_FALSE(stats.success);
  EXPECT_NE(stats.failure.find("memory budget"), std::string::npos);
  EXPECT_EQ(stats.error.code, ErrorCode::kBudget);
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_TRUE(stats.recoveries.empty());
  // No tracked leak after the failed run.
  EXPECT_EQ(MemoryTracker::instance().budget(), 0u);
}

TEST(Coupled, MultiSolveWorksForExtremeBlockSizes) {
  for (index_t nc : {1, 7, 100000}) {
    Config cfg;
    cfg.strategy = Strategy::kMultiSolve;
    cfg.n_c = nc;
    auto stats = solve_coupled(real_system(), cfg);
    ASSERT_TRUE(stats.success) << "n_c=" << nc;
    EXPECT_LT(stats.relative_error, 1e-2);
  }
}

TEST(Coupled, MultiFactorizationBlockCountSweep) {
  for (index_t nb : {1, 2, 4}) {
    Config cfg;
    cfg.strategy = Strategy::kMultiFactorization;
    cfg.n_b = nb;
    auto stats = solve_coupled(real_system(), cfg);
    ASSERT_TRUE(stats.success) << "n_b=" << nb;
    EXPECT_LT(stats.relative_error, 1e-2) << "n_b=" << nb;
  }
}

TEST(Coupled, MoreFactorizationBlocksCostMoreSparseTime) {
  // The defining trade-off of multi-factorization: n_b^2 re-factorizations.
  Config cfg1, cfg4;
  cfg1.strategy = cfg4.strategy = Strategy::kMultiFactorization;
  cfg1.n_b = 1;
  cfg4.n_b = 4;
  auto s1 = solve_coupled(real_system(), cfg1);
  auto s4 = solve_coupled(real_system(), cfg4);
  ASSERT_TRUE(s1.success && s4.success);
  EXPECT_GT(s4.phases.get("sparse_factorization"),
            s1.phases.get("sparse_factorization"));
}

TEST(Coupled, SparseCompressionReducesFactorStorage) {
  Config on, off;
  on.strategy = off.strategy = Strategy::kMultiSolve;
  on.sparse_compression = true;
  on.eps = 1e-2;
  off.sparse_compression = false;
  auto stats_on = solve_coupled(real_system(), on);
  auto stats_off = solve_coupled(real_system(), off);
  ASSERT_TRUE(stats_on.success && stats_off.success);
  EXPECT_LE(stats_on.sparse_factor_bytes, stats_off.sparse_factor_bytes);
}

TEST(Coupled, PhasesCoverTotalTime) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  auto stats = solve_coupled(real_system(), cfg);
  ASSERT_TRUE(stats.success);
  EXPECT_GT(stats.phases.get("sparse_factorization"), 0.0);
  EXPECT_GT(stats.phases.get("schur"), 0.0);
  EXPECT_GT(stats.phases.get("dense_factorization"), 0.0);
  EXPECT_GT(stats.phases.get("solution"), 0.0);
  EXPECT_LE(stats.phases.total(), stats.total_seconds * 1.5 + 0.5);
}

class ThreadSweep : public ::testing::TestWithParam<Strategy> {};

TEST_P(ThreadSweep, ParallelRunIdenticalToSerial) {
  // The task-parallel layer (leaf-parallel AXPYs, task-parallel H-LU,
  // block-parallel multi-factorization, the multifrontal tree) commits every
  // contribution in the serial order, so a 4-thread run must reproduce the
  // 1-thread result exactly -- not merely within tolerance.
  Config serial, parallel;
  serial.strategy = parallel.strategy = GetParam();
  serial.eps = parallel.eps = 1e-4;
  serial.n_c = parallel.n_c = 64;
  serial.n_S = parallel.n_S = 160;
  serial.n_b = parallel.n_b = 3;
  serial.num_threads = 1;
  parallel.num_threads = 4;
  auto ss = solve_coupled(real_system(), serial);
  auto sp = solve_coupled(real_system(), parallel);
  ASSERT_TRUE(ss.success) << ss.failure;
  ASSERT_TRUE(sp.success) << sp.failure;
  EXPECT_EQ(ss.relative_error, sp.relative_error)
      << strategy_name(GetParam());
  EXPECT_EQ(ss.schur_bytes, sp.schur_bytes);
  // Without a budget every worker may hold its own job transients, so the
  // parallel peak is bounded by the worker count times the serial peak;
  // budgeted runs are covered by the admission/failure tests below.
  EXPECT_LT(static_cast<double>(sp.peak_bytes),
            4.0 * static_cast<double>(ss.peak_bytes) + (1 << 20));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ThreadSweep,
    ::testing::ValuesIn(kAllStrategies),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      std::string name = strategy_name(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Coupled, BudgetFailureInParallelWorkersIsReportedNotThrown) {
  // BudgetExceeded raised inside OpenMP task workers must surface as
  // the same clean stats.failure a serial run produces -- never escape an
  // OpenMP region or leak tracked memory.
  const auto& sys = real_system();  // materialize the lazy static first
  const std::size_t before = MemoryTracker::instance().current();
  for (Strategy s : {Strategy::kMultiSolveCompressed,
                     Strategy::kMultiFactorizationCompressed}) {
    Config cfg;
    cfg.strategy = s;
    cfg.auto_recover = false;  // the point is the failure path itself
    cfg.num_threads = 4;
    cfg.n_b = 3;
    cfg.memory_budget =
        MemoryTracker::instance().current() + 2 * 1024 * 1024;
    auto stats = solve_coupled(sys, cfg);
    EXPECT_FALSE(stats.success) << strategy_name(s);
    EXPECT_NE(stats.failure.find("memory budget"), std::string::npos)
        << strategy_name(s) << ": " << stats.failure;
    EXPECT_EQ(stats.error.code, ErrorCode::kBudget) << strategy_name(s);
    EXPECT_EQ(MemoryTracker::instance().budget(), 0u);
  }
  EXPECT_EQ(MemoryTracker::instance().current(), before);
}

TEST(Coupled, IterativeRefinementRecoversAccuracy) {
  Config coarse;
  coarse.strategy = Strategy::kMultiSolveCompressed;
  coarse.eps = 1e-2;  // aggressive compression
  auto no_refine = solve_coupled(real_system(), coarse);
  ASSERT_TRUE(no_refine.success);

  Config refined = coarse;
  refined.refine_iterations = 2;
  auto with_refine = solve_coupled(real_system(), refined);
  ASSERT_TRUE(with_refine.success);

  EXPECT_LT(with_refine.relative_error, no_refine.relative_error / 10);
  EXPECT_LT(with_refine.relative_error, 1e-5);
}

TEST(Coupled, RefinementWorksForEveryStrategy) {
  for (Strategy s :
       {Strategy::kMultiSolve, Strategy::kMultiSolveCompressed,
        Strategy::kMultiFactorizationCompressed}) {
    Config cfg;
    cfg.strategy = s;
    cfg.eps = 1e-2;
    cfg.refine_iterations = 1;
    auto stats = solve_coupled(real_system(), cfg);
    ASSERT_TRUE(stats.success) << strategy_name(s);
    EXPECT_LT(stats.relative_error, 1e-3) << strategy_name(s);
  }
}

TEST(Coupled, RandomizedSchurSolvesAtLooseAccuracy) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveRandomized;
  cfg.eps = 1e-2;
  auto stats = solve_coupled(real_system(), cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_GT(stats.randomized_rank, 0);
  EXPECT_LT(stats.relative_error, 5e-2);
}

TEST(Coupled, RandomizedSchurAdaptiveRankGrowsWithAccuracy) {
  Config loose, tight;
  loose.strategy = tight.strategy = Strategy::kMultiSolveRandomized;
  loose.eps = 1e-1;
  tight.eps = 1e-3;
  auto s_loose = solve_coupled(real_system(), loose);
  auto s_tight = solve_coupled(real_system(), tight);
  ASSERT_TRUE(s_loose.success && s_tight.success);
  EXPECT_LE(s_loose.randomized_rank, s_tight.randomized_rank);
}

TEST(Coupled, RandomizedSchurComplexSystem) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveRandomized;
  cfg.eps = 1e-2;
  cfg.refine_iterations = 1;
  auto stats = solve_coupled(complex_system(), cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_LT(stats.relative_error, 1e-3);
}

TEST(Coupled, SymmetricHLdltModeMatchesHLu) {
  // The default run factors the symmetric Schur H-matrix with H-LDL^T; an
  // injected pivot breakdown makes the driver redo it with H-LU.
  Config ldlt_cfg;
  ldlt_cfg.strategy = Strategy::kMultiSolveCompressed;
  ldlt_cfg.eps = 1e-4;
  Config lu_cfg = ldlt_cfg;
  lu_cfg.failpoints = "hldlt.pivot=once";
  auto s_ldlt = solve_coupled(real_system(), ldlt_cfg);
  auto s_lu = solve_coupled(real_system(), lu_cfg);
  ASSERT_TRUE(s_lu.success && s_ldlt.success) << s_lu.failure;
  EXPECT_TRUE(s_ldlt.recoveries.empty());
  ASSERT_EQ(s_lu.recoveries.size(), 1u);
  EXPECT_EQ(s_lu.recoveries[0].action, "hldlt_to_hlu");
  EXPECT_LT(s_ldlt.relative_error, 1e-3);
  // Both factorizations deliver the same accuracy class.
  EXPECT_LT(s_ldlt.relative_error / std::max(s_lu.relative_error, 1e-16),
            50.0);
  EXPECT_LT(s_lu.relative_error / std::max(s_ldlt.relative_error, 1e-16),
            50.0);
}

/// Chrome-trace JSON of everything the process Tracer recorded while
/// `run` executed.
template <class Fn>
std::string trace_of(const Fn& run) {
  auto& tracer = Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  run();
  tracer.set_enabled(false);
  std::string json = tracer.to_json();
  tracer.clear();
  return json;
}

bool has_span(const std::string& trace, const std::string& name) {
  return trace.find("\"name\":\"" + name + "\"") != std::string::npos;
}

TEST(Coupled, LdltToggleIsIgnoredForUnsymmetricSystems) {
  // The system's symmetry alone picks the H-matrix Schur factorization.
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.eps = 1e-4;
  SolveStats complex_stats, real_stats;
  const std::string complex_trace = trace_of(
      [&] { complex_stats = solve_coupled(complex_system(), cfg); });
  ASSERT_TRUE(complex_stats.success) << complex_stats.failure;
  EXPECT_LT(complex_stats.relative_error, 1e-3);
  EXPECT_TRUE(has_span(complex_trace, "hlu.factor"));
  EXPECT_FALSE(has_span(complex_trace, "hldlt.factor"));

  const std::string real_trace =
      trace_of([&] { real_stats = solve_coupled(real_system(), cfg); });
  ASSERT_TRUE(real_stats.success) << real_stats.failure;
  EXPECT_TRUE(has_span(real_trace, "hldlt.factor"));
  EXPECT_FALSE(has_span(real_trace, "hlu.factor"));
}

// -- resilience: the degrade-and-retry driver -------------------------------

TEST(Resilience, BudgetDegradationHalvesPanelsUntilTheRunFits) {
  // The acceptance scenario: a budget that the seed panel width blows
  // through must be recovered automatically by halving n_c, with the
  // recovery trail recorded.
  const auto& sys = real_system();
  Config probe;
  probe.strategy = Strategy::kMultiSolve;
  probe.n_c = 8;
  auto base = solve_coupled(sys, probe);
  ASSERT_TRUE(base.success) << base.failure;

  Config cfg = probe;
  cfg.n_c = 512;  // the Y panel alone exceeds the headroom below
  cfg.memory_budget = base.peak_bytes + 1024 * 1024;

  Config no_recover = cfg;
  no_recover.auto_recover = false;
  auto failed = solve_coupled(sys, no_recover);
  ASSERT_FALSE(failed.success) << "budget chosen too loose for the test";
  EXPECT_EQ(failed.error.code, ErrorCode::kBudget);

  auto stats = solve_coupled(sys, cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_GT(stats.attempts, 1);
  ASSERT_FALSE(stats.recoveries.empty());
  for (const auto& rec : stats.recoveries) {
    EXPECT_EQ(rec.action, "halve_panels");
    EXPECT_EQ(rec.error, "budget");
  }
  EXPECT_LT(stats.relative_error, 1e-2);
}

TEST(Resilience, HldltBreakdownFallsBackToHlu) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.eps = 1e-4;
  cfg.failpoints = "hldlt.pivot=once";
  auto stats = solve_coupled(real_system(), cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_EQ(stats.attempts, 2);
  ASSERT_EQ(stats.recoveries.size(), 1u);
  EXPECT_EQ(stats.recoveries[0].action, "hldlt_to_hlu");
  EXPECT_EQ(stats.recoveries[0].error, "numerical_breakdown");
  EXPECT_LT(stats.relative_error, 1e-3);
}

TEST(Resilience, TransientOocWriteFailureRetriesInPlace) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolve;
  cfg.out_of_core = true;
  cfg.failpoints = "ooc.write=once";
  auto stats = solve_coupled(real_system(), cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  // The spill retried inside the sparse solver: no driver-level attempt.
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_GE(stats.counters.count("ooc.retries"), 1u);
  EXPECT_LT(stats.relative_error, 1e-2);
}

TEST(Resilience, PersistentSpillFailureKeepsPanelsInCore) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolve;
  cfg.out_of_core = true;
  cfg.failpoints = "ooc.write=always";
  auto stats = solve_coupled(real_system(), cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_GE(stats.counters["ooc.incore_fallbacks"], 1.0);
  EXPECT_LT(stats.relative_error, 1e-2);
}

TEST(Resilience, TransientOocReadFailureRetriesInPlace) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolve;
  cfg.out_of_core = true;
  cfg.failpoints = "ooc.read=once";
  auto stats = solve_coupled(real_system(), cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_LT(stats.relative_error, 1e-2);
}

TEST(Resilience, PersistentOocReadFailureDisablesOoc) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolve;
  cfg.out_of_core = true;
  cfg.failpoints = "ooc.read=always";
  auto stats = solve_coupled(real_system(), cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_EQ(stats.attempts, 2);
  ASSERT_FALSE(stats.recoveries.empty());
  EXPECT_EQ(stats.recoveries[0].action, "disable_ooc");
  EXPECT_EQ(stats.recoveries[0].error, "io");
  EXPECT_LT(stats.relative_error, 1e-2);
}

TEST(Resilience, RecoveryDisabledReportsFirstFailure) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.auto_recover = false;
  cfg.failpoints = "hldlt.pivot=once";
  auto stats = solve_coupled(real_system(), cfg);
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.error.code, ErrorCode::kNumericalBreakdown);
  EXPECT_EQ(stats.error.site, "hldlt.pivot");
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_TRUE(stats.recoveries.empty());
}

// -- factor once, solve many ------------------------------------------------

// RHS block whose column j is (j+1) times the system's built-in RHS, so
// column j of the exact solution is (j+1) times the manufactured one.
template <class T>
la::Matrix<T> scaled_rhs(const la::Vector<T>& b, index_t nrhs) {
  la::Matrix<T> B(b.size(), nrhs);
  for (index_t j = 0; j < nrhs; ++j)
    for (index_t i = 0; i < b.size(); ++i)
      B(i, j) = T(double(j + 1)) * b[i];
  return B;
}

template <class T>
void expect_column_bitwise_equal(const la::Matrix<T>& A, index_t ja,
                                 const la::Matrix<T>& B, index_t jb) {
  ASSERT_EQ(A.rows(), B.rows());
  ASSERT_EQ(std::memcmp(A.data() + static_cast<std::size_t>(ja) * A.rows(),
                        B.data() + static_cast<std::size_t>(jb) * B.rows(),
                        static_cast<std::size_t>(A.rows()) * sizeof(T)),
            0);
}

class FactoredSweep : public ::testing::TestWithParam<Strategy> {};

TEST_P(FactoredSweep, MultiRhsMatchesIndependentSingleRhsBitwise) {
  // The acceptance bar of the phase split: one factorization, a block of
  // right-hand sides, and every column bitwise identical to the same
  // column solved alone -- even when the batch runs at a different thread
  // count (every solution kernel accumulates each column independently in
  // a fixed scan order).
  const auto& sys = real_system();
  Config cfg;
  cfg.strategy = GetParam();
  cfg.eps = 1e-4;
  cfg.n_c = 64;
  cfg.n_S = 160;
  cfg.n_b = 2;
  auto f = factorize_coupled(sys, cfg);
  ASSERT_TRUE(f.ok()) << f.stats().failure;
  ASSERT_TRUE(f.stats().success);
  EXPECT_EQ(f.stats().nrhs, 0);
  EXPECT_EQ(f.nv(), sys.nv());
  EXPECT_EQ(f.ns(), sys.ns());

  // Wide enough to cross the packed-gemm dispatch boundary (historically
  // n >= 8): batch width must never change which kernel a column sees.
  const index_t nrhs = 9;
  la::Matrix<double> Xv = scaled_rhs(sys.b_v, nrhs);
  la::Matrix<double> Xs = scaled_rhs(sys.b_s, nrhs);
  SolveStats batch;
  {
    ScopedNumThreads threads(4);
    batch = f.solve(Xv.view(), Xs.view());
  }
  ASSERT_TRUE(batch.success) << batch.failure;
  EXPECT_EQ(batch.nrhs, nrhs);

  for (index_t j = 0; j < nrhs; ++j) {
    la::Matrix<double> bv(sys.nv(), 1), bs(sys.ns(), 1);
    for (index_t i = 0; i < sys.nv(); ++i)
      bv(i, 0) = double(j + 1) * sys.b_v[i];
    for (index_t i = 0; i < sys.ns(); ++i)
      bs(i, 0) = double(j + 1) * sys.b_s[i];
    ScopedNumThreads threads(1);
    auto single = f.solve(bv.view(), bs.view());
    ASSERT_TRUE(single.success) << single.failure;
    EXPECT_EQ(single.nrhs, 1);
    expect_column_bitwise_equal(Xv, j, bv, 0);
    expect_column_bitwise_equal(Xs, j, bs, 0);
  }

  // The batch is not just self-consistent: each column solves the system.
  la::Vector<double> xv(sys.nv()), xs(sys.ns());
  for (index_t i = 0; i < sys.nv(); ++i) xv[i] = Xv(i, nrhs - 1) / nrhs;
  for (index_t i = 0; i < sys.ns(); ++i) xs[i] = Xs(i, nrhs - 1) / nrhs;
  // The randomized Schur approximation is held to its own looser accuracy
  // class (see RandomizedSchurSolvesAtLooseAccuracy).
  const double tol =
      GetParam() == Strategy::kMultiSolveRandomized ? 5e-2 : 1e-3;
  EXPECT_LT(sys.relative_error(xv, xs), tol) << strategy_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, FactoredSweep,
    ::testing::ValuesIn(kAllStrategies),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      std::string name = strategy_name(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(FactoredCoupled, ConcurrentSolvesOnSharedFactorizationMatchSerial) {
  // FactoredCoupled::solve is const and must be callable from several
  // threads on one shared factorization (the TSan job runs this test).
  // Each worker gets its own scaled RHS; results must match the serial
  // answers bitwise.
  const auto& sys = real_system();
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.eps = 1e-4;
  cfg.refine_iterations = 1;  // refinement re-applies shared operators
  auto f = factorize_coupled(sys, cfg);
  ASSERT_TRUE(f.ok()) << f.stats().failure;

  constexpr index_t kWorkers = 4;
  std::vector<la::Matrix<double>> serial_v, serial_s;
  for (index_t t = 0; t < kWorkers; ++t) {
    serial_v.push_back(scaled_rhs(sys.b_v, 2));
    serial_s.push_back(scaled_rhs(sys.b_s, 2));
    auto stats = f.solve(serial_v[t].view(), serial_s[t].view());
    ASSERT_TRUE(stats.success) << stats.failure;
  }

  std::vector<la::Matrix<double>> conc_v, conc_s;
  for (index_t t = 0; t < kWorkers; ++t) {
    conc_v.push_back(scaled_rhs(sys.b_v, 2));
    conc_s.push_back(scaled_rhs(sys.b_s, 2));
  }
  std::vector<SolveStats> stats(kWorkers);
  std::vector<std::thread> workers;
  for (index_t t = 0; t < kWorkers; ++t)
    workers.emplace_back([&, t] {
      stats[t] = f.solve(conc_v[t].view(), conc_s[t].view());
    });
  for (auto& w : workers) w.join();

  for (index_t t = 0; t < kWorkers; ++t) {
    ASSERT_TRUE(stats[t].success) << "worker " << t << ": "
                                  << stats[t].failure;
    for (index_t j = 0; j < 2; ++j) {
      expect_column_bitwise_equal(conc_v[t], j, serial_v[t], j);
      expect_column_bitwise_equal(conc_s[t], j, serial_s[t], j);
    }
  }
}

TEST(FactoredCoupled, ConcurrentSolvesWithOutOfCorePanelsAreSafe) {
  // OOC panel loads share one FILE* across concurrent solves; the store
  // serializes seek+read, so concurrent solves must still be correct.
  const auto& sys = real_system();
  Config cfg;
  cfg.strategy = Strategy::kMultiSolve;
  cfg.out_of_core = true;
  auto f = factorize_coupled(sys, cfg);
  ASSERT_TRUE(f.ok()) << f.stats().failure;

  la::Matrix<double> ref_v = scaled_rhs(sys.b_v, 1);
  la::Matrix<double> ref_s = scaled_rhs(sys.b_s, 1);
  ASSERT_TRUE(f.solve(ref_v.view(), ref_s.view()).success);

  constexpr int kWorkers = 4;
  std::vector<la::Matrix<double>> v, s;
  for (int t = 0; t < kWorkers; ++t) {
    v.push_back(scaled_rhs(sys.b_v, 1));
    s.push_back(scaled_rhs(sys.b_s, 1));
  }
  std::vector<SolveStats> stats(kWorkers);
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t)
    workers.emplace_back(
        [&, t] { stats[t] = f.solve(v[t].view(), s[t].view()); });
  for (auto& w : workers) w.join();
  for (int t = 0; t < kWorkers; ++t) {
    ASSERT_TRUE(stats[t].success) << stats[t].failure;
    expect_column_bitwise_equal(v[t], 0, ref_v, 0);
    expect_column_bitwise_equal(s[t], 0, ref_s, 0);
  }
}

TEST(FactoredCoupled, RefinementReportsPerColumnResiduals) {
  const auto& sys = real_system();
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.eps = 1e-2;
  cfg.refine_iterations = 2;
  auto f = factorize_coupled(sys, cfg);
  ASSERT_TRUE(f.ok()) << f.stats().failure;

  const index_t nrhs = 3;
  la::Matrix<double> Bv = scaled_rhs(sys.b_v, nrhs);
  la::Matrix<double> Bs = scaled_rhs(sys.b_s, nrhs);
  auto stats = f.solve(Bv.view(), Bs.view());
  ASSERT_TRUE(stats.success) << stats.failure;
  ASSERT_EQ(stats.refine_residuals.size(), static_cast<std::size_t>(nrhs));
  for (double r : stats.refine_residuals) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, 1e-3);
  }
}

TEST(Coupled, SolveCoupledIsTheOneRhsWrapper) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolve;
  cfg.refine_iterations = 1;
  auto stats = solve_coupled(real_system(), cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_EQ(stats.nrhs, 1);
  ASSERT_EQ(stats.refine_residuals.size(), 1u);
  EXPECT_LT(stats.refine_residuals[0], 1e-3);
}

TEST(FactoredCoupled, ComplexSystemFactorizeThenSolve) {
  const auto& sys = complex_system();
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.eps = 1e-4;
  auto f = factorize_coupled(sys, cfg);
  ASSERT_TRUE(f.ok()) << f.stats().failure;
  la::Matrix<complexd> Bv = scaled_rhs(sys.b_v, 2);
  la::Matrix<complexd> Bs = scaled_rhs(sys.b_s, 2);
  auto stats = f.solve(Bv.view(), Bs.view());
  ASSERT_TRUE(stats.success) << stats.failure;
  la::Vector<complexd> xv(sys.nv()), xs(sys.ns());
  for (index_t i = 0; i < sys.nv(); ++i) xv[i] = Bv(i, 1) / 2.0;
  for (index_t i = 0; i < sys.ns(); ++i) xs[i] = Bs(i, 1) / 2.0;
  EXPECT_LT(sys.relative_error(xv, xs), 1e-3);
}

TEST(FactoredCoupled, UnfactoredOrFailedHandleRefusesToSolveCleanly) {
  FactoredCoupled<double> empty;
  EXPECT_FALSE(empty.ok());
  la::Matrix<double> b(1, 1);
  auto stats = empty.solve(b.view(), b.view());
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.error.code, ErrorCode::kInternal);

  // An invalid config yields a handle carrying the classified error and
  // the same clean refusal.
  Config bad;
  bad.n_S = 0;
  auto f = factorize_coupled(real_system(), bad);
  EXPECT_FALSE(f.ok());
  EXPECT_FALSE(f.stats().success);
  EXPECT_EQ(f.stats().error.code, ErrorCode::kInternal);
  auto s2 = f.solve(b.view(), b.view());
  EXPECT_FALSE(s2.success);
  EXPECT_EQ(s2.error.code, ErrorCode::kInternal);
}

TEST(FactoredCoupled, ShapeMismatchIsReportedNotUndefined) {
  const auto& sys = real_system();
  Config cfg;
  cfg.strategy = Strategy::kMultiSolve;
  auto f = factorize_coupled(sys, cfg);
  ASSERT_TRUE(f.ok()) << f.stats().failure;
  la::Matrix<double> Bv(sys.nv(), 2), Bs(sys.ns(), 3);
  auto stats = f.solve(Bv.view(), Bs.view());
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.error.code, ErrorCode::kInternal);
  la::Matrix<double> short_v(sys.nv() - 1, 1), bs1(sys.ns(), 1);
  auto s2 = f.solve(short_v.view(), bs1.view());
  EXPECT_FALSE(s2.success);
}

TEST(ConfigValidation, BlockingParametersAuditedPerStrategy) {
  Config c;
  c.n_S = 0;
  EXPECT_FALSE(validate_config(c).empty());
  c.n_S = 1;
  c.n_c = 0;
  EXPECT_FALSE(validate_config(c).empty());

  // The compressed multi-solve consumes n_S and rejects n_S < n_c ...
  Config ms;
  ms.strategy = Strategy::kMultiSolveCompressed;
  ms.n_c = 64;
  ms.n_S = 32;
  EXPECT_FALSE(validate_config(ms).empty());

  // ... while the randomized strategy ignores n_c/n_S/n_b entirely (its
  // blocking is the adaptive sample size), so the same values pass.
  Config r = ms;
  r.strategy = Strategy::kMultiSolveRandomized;
  EXPECT_TRUE(validate_config(r).empty());
}

// -- mixed precision: float factors, double refinement ----------------------

double worst_residual(const SolveStats& stats) {
  double worst = 0;
  for (double r : stats.refine_residuals) worst = std::max(worst, r);
  return worst;
}

class MixedPrecisionSweep : public ::testing::TestWithParam<Strategy> {};

TEST_P(MixedPrecisionSweep, SingleFactorsReachDoubleLevelResiduals) {
  // The paper's mixed-precision bar: factors stored and applied in float,
  // double-precision refinement against the exact operators, and the final
  // residual within 10x of the all-double run (with the refinement target
  // as a floor -- both runs early-exit once they meet it).
  Config dbl;
  dbl.strategy = GetParam();
  dbl.eps = 1e-4;
  dbl.n_c = 64;
  dbl.n_S = 160;
  dbl.n_b = 2;
  dbl.refine_iterations = 6;
  dbl.refine_tolerance = 1e-9;
  auto sd = solve_coupled(real_system(), dbl);
  ASSERT_TRUE(sd.success) << sd.failure;

  Config sgl = dbl;
  sgl.factor_precision = Precision::kSingle;
  auto ss = solve_coupled(real_system(), sgl);
  ASSERT_TRUE(ss.success) << ss.failure;
  EXPECT_EQ(ss.factor_precision, Precision::kSingle)
      << "escalated: " << strategy_name(GetParam());
  EXPECT_GE(ss.refine_sweeps, 1);
  EXPECT_LT(ss.relative_error, 1e-3) << strategy_name(GetParam());
  EXPECT_LT(worst_residual(ss),
            10.0 * std::max(worst_residual(sd), dbl.refine_tolerance))
      << strategy_name(GetParam());
  // Float factors buy the paper's memory headroom.
  ASSERT_GT(sd.factor_bytes, 0u);
  EXPECT_LT(ss.factor_bytes, sd.factor_bytes) << strategy_name(GetParam());
}

TEST_P(MixedPrecisionSweep, ComplexSystemSingleFactorsStayAccurate) {
  Config cfg;
  cfg.strategy = GetParam();
  cfg.eps = 1e-4;
  cfg.n_c = 64;
  cfg.n_S = 160;
  cfg.n_b = 2;
  // Each sweep applies the exact (uncompressed) BEM generator, the
  // dominant cost on the complex system; a 1e-6 target early-exits well
  // past the 1e-3 accuracy bar below.
  cfg.refine_iterations = 4;
  cfg.refine_tolerance = 1e-6;
  cfg.factor_precision = Precision::kSingle;
  auto stats = solve_coupled(complex_system(), cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_LT(stats.relative_error, 1e-3) << strategy_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, MixedPrecisionSweep,
    ::testing::ValuesIn(kAllStrategies),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      std::string name = strategy_name(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Coupled, SingleFactorsRoughlyHalveFactorStorage) {
  // Dense Schur + uncompressed multifrontal: every factor byte is a raw
  // scalar, so single precision stores about half of what double does.
  Config dbl;
  dbl.strategy = Strategy::kMultiSolve;
  dbl.sparse_compression = false;
  dbl.refine_iterations = 3;
  Config sgl = dbl;
  sgl.factor_precision = Precision::kSingle;
  auto sd = solve_coupled(real_system(), dbl);
  auto ss = solve_coupled(real_system(), sgl);
  ASSERT_TRUE(sd.success && ss.success);
  ASSERT_GT(sd.factor_bytes, 0u);
  EXPECT_LT(static_cast<double>(ss.factor_bytes),
            0.6 * static_cast<double>(sd.factor_bytes));
}

TEST(ConfigValidation, SingleFactorsRequireRefinement) {
  Config c;
  c.factor_precision = Precision::kSingle;
  c.refine_iterations = 0;
  EXPECT_FALSE(validate_config(c).empty());
  c.refine_iterations = 1;
  EXPECT_TRUE(validate_config(c).empty());
  c.refine_tolerance = -1e-9;
  EXPECT_FALSE(validate_config(c).empty());
}

// A missing or unwritable spill directory must reject the config up front
// as a structured I/O error — not surface as "ooc.open" mid-factorization
// at first spill. (The serving daemon validates config at startup.)
TEST(ConfigValidation, BadOocDirFailsFastAsIoError) {
  Config c;
  c.out_of_core = true;
  c.ooc_dir = "/nonexistent/cs_ooc_probe";
  const std::string problem = validate_config(c);
  ASSERT_FALSE(problem.empty());
  EXPECT_NE(problem.find("ooc_dir"), std::string::npos);

  c.auto_recover = false;  // the dir never appears; no point retrying
  auto stats = solve_coupled(real_system(), c);
  ASSERT_FALSE(stats.success);
  EXPECT_EQ(stats.error.code, ErrorCode::kIo);
  EXPECT_EQ(stats.error.site, "ooc.dir");

  c.ooc_dir = ::testing::TempDir();
  EXPECT_TRUE(validate_config(c).empty()) << validate_config(c);
}

TEST(Resilience, ForcedRefineStallEscalatesToDoubleFactors) {
  // The precision-escalation rung: a refinement plateau under single
  // factors re-factorizes in double. The failpoint forces the plateau on
  // the first attempt; the retry must report the escalated precision.
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.eps = 1e-4;
  cfg.factor_precision = Precision::kSingle;
  cfg.refine_iterations = 2;
  cfg.failpoints = "refine.stall=once";
  auto stats = solve_coupled(real_system(), cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_EQ(stats.attempts, 2);
  ASSERT_EQ(stats.recoveries.size(), 1u);
  EXPECT_EQ(stats.recoveries[0].action, "precision_escalate");
  EXPECT_EQ(stats.recoveries[0].error, "numerical_breakdown");
  EXPECT_EQ(stats.factor_precision, Precision::kDouble);
  EXPECT_LT(stats.relative_error, 1e-3);
}

TEST(Resilience, RefineStallWithoutRecoveryIsClassified) {
  Config cfg;
  cfg.strategy = Strategy::kMultiSolve;
  cfg.factor_precision = Precision::kSingle;
  cfg.refine_iterations = 1;
  cfg.auto_recover = false;
  cfg.failpoints = "refine.stall=once";
  auto stats = solve_coupled(real_system(), cfg);
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.error.code, ErrorCode::kNumericalBreakdown);
  EXPECT_EQ(stats.error.site, "refine.stall");
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_TRUE(stats.recoveries.empty());
}

TEST(FactoredCoupled, MixedPrecisionFactorizeThenSolve) {
  const auto& sys = real_system();
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.eps = 1e-4;
  cfg.factor_precision = Precision::kSingle;
  cfg.refine_iterations = 4;
  cfg.refine_tolerance = 1e-9;
  auto f = factorize_coupled(sys, cfg);
  ASSERT_TRUE(f.ok()) << f.stats().failure;
  EXPECT_EQ(f.stats().factor_precision, Precision::kSingle);

  la::Matrix<double> Bv = scaled_rhs(sys.b_v, 2);
  la::Matrix<double> Bs = scaled_rhs(sys.b_s, 2);
  auto stats = f.solve(Bv.view(), Bs.view());
  ASSERT_TRUE(stats.success) << stats.failure;
  EXPECT_EQ(stats.factor_precision, Precision::kSingle);
  EXPECT_GE(stats.refine_sweeps, 1);
  la::Vector<double> xv(sys.nv()), xs(sys.ns());
  for (index_t i = 0; i < sys.nv(); ++i) xv[i] = Bv(i, 1) / 2.0;
  for (index_t i = 0; i < sys.ns(); ++i) xs[i] = Bs(i, 1) / 2.0;
  EXPECT_LT(sys.relative_error(xv, xs), 1e-3);
}

TEST(FactoredCoupled, ConcurrentMixedPrecisionSolvesMatchSerial) {
  // The TSan target for the mixed path: concurrent solves down-convert
  // RHS blocks and refine through the shared float factors; results must
  // match the serial answers bitwise.
  const auto& sys = real_system();
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.eps = 1e-4;
  cfg.factor_precision = Precision::kSingle;
  cfg.refine_iterations = 2;
  auto f = factorize_coupled(sys, cfg);
  ASSERT_TRUE(f.ok()) << f.stats().failure;

  constexpr index_t kWorkers = 4;
  std::vector<la::Matrix<double>> serial_v, serial_s;
  for (index_t t = 0; t < kWorkers; ++t) {
    serial_v.push_back(scaled_rhs(sys.b_v, 2));
    serial_s.push_back(scaled_rhs(sys.b_s, 2));
    auto stats = f.solve(serial_v[t].view(), serial_s[t].view());
    ASSERT_TRUE(stats.success) << stats.failure;
  }

  std::vector<la::Matrix<double>> conc_v, conc_s;
  for (index_t t = 0; t < kWorkers; ++t) {
    conc_v.push_back(scaled_rhs(sys.b_v, 2));
    conc_s.push_back(scaled_rhs(sys.b_s, 2));
  }
  std::vector<SolveStats> stats(kWorkers);
  std::vector<std::thread> workers;
  for (index_t t = 0; t < kWorkers; ++t)
    workers.emplace_back([&, t] {
      stats[t] = f.solve(conc_v[t].view(), conc_s[t].view());
    });
  for (auto& w : workers) w.join();

  for (index_t t = 0; t < kWorkers; ++t) {
    ASSERT_TRUE(stats[t].success) << "worker " << t << ": "
                                  << stats[t].failure;
    for (index_t j = 0; j < 2; ++j) {
      expect_column_bitwise_equal(conc_v[t], j, serial_v[t], j);
      expect_column_bitwise_equal(conc_s[t], j, serial_s[t], j);
    }
  }
}

TEST(Coupled, StrategyNamesAreUnique) {
  std::set<std::string> names;
  for (Strategy s : kAllStrategies) names.insert(strategy_name(s));
  EXPECT_EQ(names.size(), 7u);
}

TEST(Coupled, StrategyNamesRoundTrip) {
  for (Strategy s : kAllStrategies) {
    const auto parsed = strategy_from_name(strategy_name(s));
    ASSERT_TRUE(parsed.has_value()) << strategy_name(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(strategy_from_name("no-such-strategy").has_value());
  EXPECT_FALSE(strategy_from_name("").has_value());
  EXPECT_FALSE(strategy_from_name("?").has_value());
  EXPECT_FALSE(strategy_from_name("Multi-Solve").has_value());
}

}  // namespace
}  // namespace cs::coupled
