// Tests for the task-parallel multifrontal tree walk and the parallel
// H-matrix leaf assembly: results must be identical to the serial paths,
// and error paths (budget) must propagate out of the parallel regions.
#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "fembem/system.h"
#include "hmat/hmatrix.h"
#include "sparsedirect/multifrontal.h"

namespace cs {
namespace {

using la::Matrix;
using la::rel_diff;

sparse::Csr<double> laplacian3d(index_t g) {
  sparse::Triplets<double> t(g * g * g, g * g * g);
  auto id = [g](index_t i, index_t j, index_t k) {
    return i + g * (j + g * k);
  };
  for (index_t k = 0; k < g; ++k)
    for (index_t j = 0; j < g; ++j)
      for (index_t i = 0; i < g; ++i) {
        t.add(id(i, j, k), id(i, j, k), 6.1);
        if (i + 1 < g) { t.add(id(i, j, k), id(i + 1, j, k), -1.0);
                         t.add(id(i + 1, j, k), id(i, j, k), -1.0); }
        if (j + 1 < g) { t.add(id(i, j, k), id(i, j + 1, k), -1.0);
                         t.add(id(i, j + 1, k), id(i, j, k), -1.0); }
        if (k + 1 < g) { t.add(id(i, j, k), id(i, j, k + 1), -1.0);
                         t.add(id(i, j, k + 1), id(i, j, k), -1.0); }
      }
  return sparse::Csr<double>::from_triplets(t);
}

TEST(ParallelFronts, SolveIdenticalToSerial) {
  auto A = laplacian3d(12);
  const index_t n = A.rows();
  Rng rng(1);
  Matrix<double> B(n, 2);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i) B(i, j) = rng.uniform(-1, 1);

  sparsedirect::MultifrontalSolver<double> serial, parallel;
  sparsedirect::SolverOptions so;
  serial.factorize(A, so);
  sparsedirect::SolverOptions po;
  po.parallel_fronts = true;
  parallel.factorize(A, po);

  Matrix<double> Xs = B, Xp = B;
  serial.solve(Xs.view());
  parallel.solve(Xp.view());
  // The task tree executes the same per-front arithmetic: identical
  // results (not merely close).
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i) EXPECT_EQ(Xs(i, j), Xp(i, j));
  EXPECT_EQ(serial.stats().factor_entries_stored,
            parallel.stats().factor_entries_stored);
}

TEST(ParallelFronts, SchurIdenticalToSerial) {
  auto A = laplacian3d(10);
  sparsedirect::SolverOptions so;
  so.schur_size = 40;
  sparsedirect::SolverOptions po = so;
  po.parallel_fronts = true;

  sparsedirect::MultifrontalSolver<double> serial, parallel;
  serial.factorize(A, so);
  parallel.factorize(A, po);
  auto Ss = serial.take_schur();
  auto Sp = parallel.take_schur();
  for (index_t j = 0; j < 40; ++j)
    for (index_t i = 0; i < 40; ++i) EXPECT_EQ(Ss(i, j), Sp(i, j));
}

TEST(ParallelFronts, UnsymmetricLuPath) {
  auto A0 = laplacian3d(9);
  sparse::Triplets<double> t(A0.rows(), A0.cols());
  Rng rng(5);
  for (index_t r = 0; r < A0.rows(); ++r)
    for (offset_t k = A0.row_begin(r); k < A0.row_end(r); ++k)
      t.add(r, A0.col(k),
            A0.value(k) * (A0.col(k) == r ? 1.0 : rng.uniform(0.5, 1.5)));
  auto A = sparse::Csr<double>::from_triplets(t);
  const index_t n = A.rows();
  Matrix<double> X(n, 1);
  for (index_t i = 0; i < n; ++i) X(i, 0) = rng.uniform(-1, 1);
  Matrix<double> B(n, 1);
  A.spmm(1.0, X.view(), 0.0, B.view());

  sparsedirect::MultifrontalSolver<double> mf;
  sparsedirect::SolverOptions opt;
  opt.symmetric = false;
  opt.parallel_fronts = true;
  mf.factorize(A, opt);
  mf.solve(B.view());
  EXPECT_LT(rel_diff<double>(B.view(), X.view()), 1e-10);
}

TEST(ParallelFronts, BudgetFailurePropagatesFromTasks) {
  auto A = laplacian3d(14);
  auto& tracker = MemoryTracker::instance();
  const std::size_t before = tracker.current();
  {
    sparsedirect::MultifrontalSolver<double> mf;
    sparsedirect::SolverOptions opt;
    opt.parallel_fronts = true;
    ScopedBudget budget(tracker.current() + 64 * 1024);
    EXPECT_THROW(mf.factorize(A, opt), BudgetExceeded);
  }
  EXPECT_EQ(tracker.current(), before);
}

TEST(ParallelFronts, OutOfCoreForcesSerialPathAndStillWorks) {
  auto A = laplacian3d(9);
  sparsedirect::MultifrontalSolver<double> mf;
  sparsedirect::SolverOptions opt;
  opt.parallel_fronts = true;
  opt.out_of_core = true;  // forces the serial walk
  mf.factorize(A, opt);
  EXPECT_GT(mf.stats().ooc_bytes, 0u);
  Matrix<double> b(A.rows(), 1);
  b(3, 0) = 1.0;
  mf.solve(b.view());
  EXPECT_TRUE(std::isfinite(b(0, 0)));
}

TEST(TaskHelpers, RunTaskGroupRunsEveryThunkAndRethrowsFirstError) {
  // Outside a parallel region the group runs serially in order; either
  // way every thunk must run and the first exception (by thunk order)
  // must reach the caller.
  std::vector<int> ran(4, 0);
  run_task_group(2, {[&] { ran[0] = 1; },
                     [&] { ran[1] = 1; },
                     [&] { ran[2] = 1; },
                     [&] { ran[3] = 1; }});
  for (int r : ran) EXPECT_EQ(r, 1);

  auto throwing = [&]() {
    run_task_group(
        2, {[] {}, [] { throw std::runtime_error("first"); },
            [] { throw std::runtime_error("second"); }});
  };
  try {
    throwing();
    FAIL() << "expected the task group to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ParallelHlu, FactorizationIdenticalAcrossThreadCounts) {
  // The task-parallel H-LU and H-LDL^T spawn independent off-diagonal
  // solves and GEMM quadrants (the H-LDL^T ones D-scaled, with a
  // transposed right operand), but each block keeps its serial
  // accumulation order: the factors -- and therefore the solves -- are
  // bitwise identical at any thread count. A_ss is symmetric, so both
  // factorizations apply.
  auto sys = fembem::make_pipe_system<double>({.total_unknowns = 3000});
  hmat::ClusterTree tree(sys.surface_points(), 48);
  hmat::HOptions opt;
  opt.eps = 1e-6;

  const index_t n = tree.size();
  Matrix<double> b(n, 1);
  Rng rng(7);
  for (index_t i = 0; i < n; ++i) b(i, 0) = rng.uniform(-1, 1);

  const auto factor_and_solve = [&](bool ldlt, int threads) {
    ScopedNumThreads scoped(threads);
    auto H = hmat::HMatrix<double>::assemble(tree, tree, *sys.A_ss, opt);
    if (ldlt) {
      H.ldlt_factorize();
    } else {
      H.lu_factorize();
    }
    Matrix<double> x = b;
    H.solve(x.view());
    return x;
  };
  for (bool ldlt : {false, true}) {
    const Matrix<double> x_serial = factor_and_solve(ldlt, 1);
    for (int threads : {2, 4, 8}) {
      const Matrix<double> x_parallel = factor_and_solve(ldlt, threads);
      for (index_t i = 0; i < n; ++i)
        ASSERT_EQ(x_serial(i, 0), x_parallel(i, 0))
            << (ldlt ? "H-LDLT" : "H-LU") << " threads=" << threads
            << " row " << i;
    }
  }
}

TEST(ParallelAssembly, BudgetFailurePropagatesFromLeafLoop) {
  // The parallel H-assembly loop must convert leaf exceptions into a
  // single rethrown exception, not terminate.
  auto sys = fembem::make_pipe_system<double>({.total_unknowns = 2500});
  hmat::ClusterTree tree(sys.surface_points(), 32);
  auto& tracker = MemoryTracker::instance();
  ScopedBudget budget(tracker.current() + 32 * 1024);
  EXPECT_THROW(hmat::HMatrix<double>::assemble(tree, tree, *sys.A_ss,
                                               hmat::HOptions{}),
               BudgetExceeded);
}

}  // namespace
}  // namespace cs
