// Frequency-sweep engine (DESIGN.md §15): the recycled sweep must match
// the naive one in accuracy for every strategy, stay bitwise deterministic
// (warm structure/rank reuse may change *work*, never *answers*), fall
// back cleanly to fresh factorizations when frequency-lagged refinement
// stalls, and leave no tracked memory behind on teardown.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "coupled/sweep.h"
#include "fembem/shifted.h"

namespace cs::coupled {
namespace {

using fembem::SweepFamily;
using fembem::SweepParams;

const SweepFamily<double>& family() {
  static SweepFamily<double> fam = [] {
    SweepParams p;
    p.total_unknowns = 1200;
    p.scatterers = 1;
    return SweepFamily<double>(p);
  }();
  return fam;
}

Config sweep_config(Strategy s) {
  Config cfg;
  cfg.strategy = s;
  cfg.eps = 1e-4;
  cfg.refine_tolerance = 1e-8;
  cfg.refine_iterations = 4;
  return cfg;
}

/// Closely spaced frequencies: the lagged contraction rate scales with
/// |omega^2 - omega'^2|, so a fine grid is where tier 3 can engage.
const std::vector<double> kOmegas = {1.1, 1.125, 1.15};

TEST(Sweep, RecycledMatchesNaiveAccuracyForEveryStrategy) {
  for (Strategy s : kAllStrategies) {
    SweepOptions naive_opt;
    naive_opt.config = sweep_config(s);
    naive_opt.recycle = false;
    SweepOptions recycled_opt = naive_opt;
    recycled_opt.recycle = true;

    SweepDriver<double> naive(family(), naive_opt);
    SweepDriver<double> recycled(family(), recycled_opt);
    const SweepStats sn = naive.run(kOmegas);
    const SweepStats sr = recycled.run(kOmegas);

    ASSERT_TRUE(sn.success) << strategy_name(s) << ": " << sn.failure;
    ASSERT_TRUE(sr.success) << strategy_name(s) << ": " << sr.failure;
    ASSERT_EQ(sn.freqs.size(), kOmegas.size());
    ASSERT_EQ(sr.freqs.size(), kOmegas.size());
    // Whatever tier served a frequency, its answer meets the same
    // refinement tolerance the naive sweep works to (the error vs the
    // manufactured reference carries a kappa(A) amplification over the
    // residual bar, hence the slack).
    for (std::size_t i = 0; i < kOmegas.size(); ++i) {
      EXPECT_LT(sn.freqs[i].relative_error, 1e-5)
          << strategy_name(s) << " naive omega=" << kOmegas[i];
      EXPECT_LT(sr.freqs[i].relative_error, 1e-5)
          << strategy_name(s) << " recycled omega=" << kOmegas[i];
    }
    // Recycling must never *add* factorizations.
    EXPECT_LE(sr.factorizations, sn.factorizations) << strategy_name(s);
    EXPECT_EQ(sn.factorizations, static_cast<int>(kOmegas.size()));
  }
}

TEST(Sweep, StructuralReuseEngagesAfterFirstFrequency) {
  SweepOptions opt;
  opt.config = sweep_config(Strategy::kMultiSolveCompressed);
  SweepDriver<double> driver(family(), opt);
  const SweepStats sw = driver.run(kOmegas);
  ASSERT_TRUE(sw.success) << sw.failure;
  EXPECT_GE(driver.context().analyses_cached(), 1u);
  EXPECT_GE(driver.context().skeletons_cached(), 1u);
  // Every refactorization after the first replays the stored interior
  // analysis and the H-matrix block skeleton instead of recomputing them.
  double analysis_reuses = 0, structure_reuses = 0;
  for (std::size_t i = 1; i < sw.freqs.size(); ++i) {
    if (!sw.freqs[i].refactorized) continue;
    auto a = sw.freqs[i].counters.find("mf.analysis_reuses");
    auto h = sw.freqs[i].counters.find("hmat.structure_reuses");
    if (a != sw.freqs[i].counters.end()) analysis_reuses += a->second;
    if (h != sw.freqs[i].counters.end()) structure_reuses += h->second;
  }
  if (sw.factorizations > 1) {
    EXPECT_GT(analysis_reuses, 0);
    EXPECT_GT(structure_reuses, 0);
  }
}

TEST(Sweep, LaggedRefinementServesAtLeastOneFrequency) {
  SweepOptions opt;
  opt.config = sweep_config(Strategy::kMultiSolveCompressed);
  opt.lagged_refine_iterations = 40;
  SweepDriver<double> driver(family(), opt);
  const SweepStats sw = driver.run(kOmegas);
  ASSERT_TRUE(sw.success) << sw.failure;
  EXPECT_GE(sw.lagged_solves, 1) << "no frequency was served by "
                                    "frequency-lagged refinement on a "
                                    "closely spaced grid";
  EXPECT_LT(sw.factorizations, static_cast<int>(kOmegas.size()));
}

TEST(Sweep, ForcedLaggedStallFallsBackToFreshFactorization) {
  SweepOptions opt;
  opt.config = sweep_config(Strategy::kMultiSolveCompressed);
  // solve_lagged arms the config failpoints per attempt, the fresh path
  // never sees the refine.stall site armed: every lagged attempt stalls
  // deterministically and every frequency must fall through to a fresh
  // factorization -- and the sweep must still complete correctly.
  opt.config.failpoints = "refine.stall=always";
  SweepDriver<double> driver(family(), opt);
  const SweepStats sw = driver.run(kOmegas);
  ASSERT_TRUE(sw.success) << sw.failure;
  EXPECT_EQ(sw.lagged_solves, 0);
  EXPECT_EQ(sw.factorizations, static_cast<int>(kOmegas.size()));
  bool saw_stall_fallback = false;
  for (const auto& f : sw.freqs) {
    EXPECT_TRUE(f.refactorized);
    EXPECT_LT(f.relative_error, 1e-5);
    if (f.fallback_reason == "refine.stall") saw_stall_fallback = true;
  }
  EXPECT_TRUE(saw_stall_fallback);
}

TEST(Sweep, DisabledRecyclingReportsWhyLaggedNeverRan) {
  SweepOptions opt;
  opt.config = sweep_config(Strategy::kMultiSolve);
  opt.recycle = false;
  SweepDriver<double> driver(family(), opt);
  const SweepStats sw = driver.run({1.1, 1.125});
  ASSERT_TRUE(sw.success) << sw.failure;
  for (const auto& f : sw.freqs) EXPECT_EQ(f.fallback_reason, "disabled");
  EXPECT_EQ(driver.context().analyses_cached(), 0u);
}

template <class T>
bool bitwise_equal(const la::Matrix<T>& A, const la::Matrix<T>& B) {
  if (A.rows() != B.rows() || A.cols() != B.cols()) return false;
  for (index_t j = 0; j < A.cols(); ++j)
    for (index_t i = 0; i < A.rows(); ++i)
      if (std::memcmp(&A(i, j), &B(i, j), sizeof(T)) != 0) return false;
  return true;
}

/// One factorize+solve through an explicit context; returns the solution
/// block so callers can compare warm-vs-cold and across thread counts.
std::pair<la::Matrix<double>, la::Matrix<double>> context_solve(
    const Config& cfg, SweepContext* ctx) {
  const auto sys = family().at(1.15);
  auto f = factorize_coupled(sys, cfg, ctx);
  EXPECT_TRUE(f.ok()) << f.stats().failure;
  la::Matrix<double> Bv(sys.nv(), 1), Bs(sys.ns(), 1);
  for (index_t i = 0; i < sys.nv(); ++i) Bv(i, 0) = sys.b_v[i];
  for (index_t i = 0; i < sys.ns(); ++i) Bs(i, 0) = sys.b_s[i];
  const SolveStats ss = f.solve(Bv.view(), Bs.view());
  EXPECT_TRUE(ss.success) << ss.failure;
  return {std::move(Bv), std::move(Bs)};
}

TEST(Sweep, WarmReuseIsBitwiseIdenticalAtAnyThreadCount) {
  Config cfg = sweep_config(Strategy::kMultiSolveCompressed);
  cfg.num_threads = 1;
  SweepContext ctx1;
  const auto cold1 = context_solve(cfg, &ctx1);
  // Second factorization replays the stored analysis, cluster tree and
  // rank hints -- the hints may shrink the *work*, never the *answer*.
  const auto warm1 = context_solve(cfg, &ctx1);
  EXPECT_TRUE(bitwise_equal(cold1.first, warm1.first));
  EXPECT_TRUE(bitwise_equal(cold1.second, warm1.second));

  Config cfg4 = cfg;
  cfg4.num_threads = 4;
  SweepContext ctx4;
  const auto cold4 = context_solve(cfg4, &ctx4);
  const auto warm4 = context_solve(cfg4, &ctx4);
  EXPECT_TRUE(bitwise_equal(cold1.first, cold4.first));
  EXPECT_TRUE(bitwise_equal(cold1.second, cold4.second));
  EXPECT_TRUE(bitwise_equal(cold1.first, warm4.first));
  EXPECT_TRUE(bitwise_equal(cold1.second, warm4.second));
}

TEST(Sweep, TeardownReturnsTrackedMemoryToBaseline) {
  family();  // materialize the lazily-built scene before the baseline
  const std::size_t before = MemoryTracker::instance().current();
  {
    SweepOptions opt;
    opt.config = sweep_config(Strategy::kMultiSolveCompressed);
    SweepDriver<double> driver(family(), opt);
    const SweepStats sw = driver.run({1.1, 1.125});
    ASSERT_TRUE(sw.success) << sw.failure;
  }
  EXPECT_EQ(MemoryTracker::instance().current(), before);
}

}  // namespace
}  // namespace cs::coupled
