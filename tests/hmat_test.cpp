// Tests for the H-matrix library: cluster trees, admissibility, ACA
// assembly, H-matrix algebra (mult, compressed AXPY) and H-LU solve.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "hmat/aca.h"
#include "hmat/cluster.h"
#include "hmat/hmatrix.h"
#include "la/blas.h"
#include "la/factor.h"

namespace cs::hmat {
namespace {

using la::ConstMatrixView;
using la::Matrix;
using la::rel_diff;

/// Points on a cylinder surface (the geometry of the paper's pipe case).
std::vector<Point3> cylinder_points(index_t n_theta, index_t n_z,
                                    double radius = 1.0, double length = 3.0) {
  std::vector<Point3> pts;
  pts.reserve(static_cast<std::size_t>(n_theta) * n_z);
  for (index_t iz = 0; iz < n_z; ++iz)
    for (index_t it = 0; it < n_theta; ++it) {
      const double theta = 2.0 * M_PI * it / n_theta;
      pts.push_back({radius * std::cos(theta), radius * std::sin(theta),
                     length * iz / std::max<index_t>(1, n_z - 1)});
    }
  return pts;
}

double dist(const Point3& a, const Point3& b) {
  return std::sqrt((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y) +
                   (a.z - b.z) * (a.z - b.z));
}

/// Regularized Laplace single-layer kernel with a dominant diagonal, the
/// smooth-kernel structure of the BEM matrices.
class LaplaceKernel final : public MatrixGenerator<double> {
 public:
  LaplaceKernel(std::vector<Point3> pts, double diag)
      : pts_(std::move(pts)), diag_(diag) {}
  index_t rows() const override { return static_cast<index_t>(pts_.size()); }
  index_t cols() const override { return static_cast<index_t>(pts_.size()); }
  double entry(index_t i, index_t j) const override {
    if (i == j) return diag_;
    const double r = dist(pts_[static_cast<std::size_t>(i)],
                          pts_[static_cast<std::size_t>(j)]);
    return 1.0 / (4.0 * M_PI * std::max(r, 1e-9));
  }

 private:
  std::vector<Point3> pts_;
  double diag_;
};

/// Complex Helmholtz single-layer analogue.
class HelmholtzKernel final : public MatrixGenerator<complexd> {
 public:
  HelmholtzKernel(std::vector<Point3> pts, double wavenumber, double diag)
      : pts_(std::move(pts)), k_(wavenumber), diag_(diag) {}
  index_t rows() const override { return static_cast<index_t>(pts_.size()); }
  index_t cols() const override { return static_cast<index_t>(pts_.size()); }
  complexd entry(index_t i, index_t j) const override {
    if (i == j) return complexd(diag_, 0.1);
    const double r = std::max(
        dist(pts_[static_cast<std::size_t>(i)],
             pts_[static_cast<std::size_t>(j)]),
        1e-9);
    return std::exp(complexd(0.0, k_ * r)) / (4.0 * M_PI * r);
  }

 private:
  std::vector<Point3> pts_;
  double k_;
  double diag_;
};

template <class T>
Matrix<T> dense_of(const MatrixGenerator<T>& gen) {
  Matrix<T> d(gen.rows(), gen.cols());
  for (index_t j = 0; j < gen.cols(); ++j)
    for (index_t i = 0; i < gen.rows(); ++i) d(i, j) = gen.entry(i, j);
  return d;
}

/// Dense matrix in tree-ordered coordinates.
template <class T>
Matrix<T> dense_tree_ordered(const MatrixGenerator<T>& gen,
                             const ClusterTree& rows,
                             const ClusterTree& cols) {
  Matrix<T> d(gen.rows(), gen.cols());
  const auto& ro = rows.original_of_tree();
  const auto& co = cols.original_of_tree();
  for (index_t j = 0; j < gen.cols(); ++j)
    for (index_t i = 0; i < gen.rows(); ++i)
      d(i, j) = gen.entry(ro[static_cast<std::size_t>(i)],
                          co[static_cast<std::size_t>(j)]);
  return d;
}

TEST(ClusterTree, PermutationIsValidAndRangesPartition) {
  auto pts = cylinder_points(20, 15);
  ClusterTree tree(pts, 16);
  EXPECT_EQ(tree.size(), 300);
  // perm and iperm are inverse bijections.
  const auto& perm = tree.tree_of_original();
  const auto& iperm = tree.original_of_tree();
  for (index_t i = 0; i < tree.size(); ++i) {
    EXPECT_EQ(perm[static_cast<std::size_t>(iperm[static_cast<std::size_t>(
                  i)])],
              i);
  }
  // Leaves partition [0, n) and respect the leaf size.
  index_t covered = 0;
  std::function<void(const ClusterNode&)> walk = [&](const ClusterNode& n) {
    EXPECT_LT(n.begin, n.end);
    if (n.is_leaf()) {
      EXPECT_LE(n.size(), 16);
      EXPECT_EQ(n.begin, covered);
      covered = n.end;
    } else {
      EXPECT_EQ(n.left->begin, n.begin);
      EXPECT_EQ(n.left->end, n.right->begin);
      EXPECT_EQ(n.right->end, n.end);
      walk(*n.left);
      walk(*n.right);
    }
  };
  walk(tree.root());
  EXPECT_EQ(covered, tree.size());
  EXPECT_GT(tree.node_count(), 1);
  EXPECT_GT(tree.depth(), 2);
}

TEST(ClusterTree, SinglePointAndTinySets) {
  std::vector<Point3> one = {{0.5, 0.5, 0.5}};
  ClusterTree t1(one, 8);
  EXPECT_EQ(t1.size(), 1);
  EXPECT_TRUE(t1.root().is_leaf());

  std::vector<Point3> two = {{0, 0, 0}, {1, 1, 1}};
  ClusterTree t2(two, 1);
  EXPECT_EQ(t2.size(), 2);
  EXPECT_FALSE(t2.root().is_leaf());
}

TEST(Admissibility, SeparatedBoxesAdmissible) {
  ClusterNode a, b;
  a.box = {{0, 0, 0}, {1, 1, 1}};
  b.box = {{5, 0, 0}, {6, 1, 1}};
  EXPECT_TRUE(admissible(a, b, 2.0));
  // Touching boxes are never admissible.
  ClusterNode c;
  c.box = {{1, 0, 0}, {2, 1, 1}};
  EXPECT_FALSE(admissible(a, c, 100.0));
  // Tiny eta rejects moderately separated boxes.
  EXPECT_FALSE(admissible(a, b, 0.1));
}

class AcaEpsSweep : public ::testing::TestWithParam<double> {};

TEST_P(AcaEpsSweep, ApproximatesSmoothBlockWithinEps) {
  const double eps = GetParam();
  // Two well-separated point clusters -> smooth low-rank interaction.
  auto pts = cylinder_points(12, 10);
  std::vector<Point3> far = pts;
  for (auto& p : far) p.x += 10.0;
  std::vector<Point3> all = pts;
  all.insert(all.end(), far.begin(), far.end());
  LaplaceKernel gen(all, 1.0);

  const index_t m = static_cast<index_t>(pts.size());
  std::vector<index_t> rows(static_cast<std::size_t>(m)),
      cols(static_cast<std::size_t>(m));
  for (index_t i = 0; i < m; ++i) {
    rows[static_cast<std::size_t>(i)] = i;
    cols[static_cast<std::size_t>(i)] = m + i;
  }
  auto rk = aca_assemble(gen, rows, cols, eps);
  Matrix<double> block(m, m);
  for (index_t j = 0; j < m; ++j)
    for (index_t i = 0; i < m; ++i)
      block(i, j) = gen.entry(rows[static_cast<std::size_t>(i)],
                              cols[static_cast<std::size_t>(j)]);
  Matrix<double> rec(m, m);
  la::gemm(1.0, rk.U.view(), la::Op::kNoTrans, rk.V.view(), la::Op::kTrans,
           0.0, rec.view());
  EXPECT_LT(rel_diff<double>(rec.view(), block.view()), 20 * eps);
  EXPECT_LT(rk.rank(), m / 2);  // genuinely low rank
}

INSTANTIATE_TEST_SUITE_P(Accuracies, AcaEpsSweep,
                         ::testing::Values(1e-2, 1e-4, 1e-6, 1e-8));

TEST(Aca, ZeroBlockGivesRankZero) {
  class ZeroGen final : public MatrixGenerator<double> {
   public:
    index_t rows() const override { return 10; }
    index_t cols() const override { return 10; }
    double entry(index_t, index_t) const override { return 0.0; }
  } gen;
  std::vector<index_t> ids(10);
  std::iota(ids.begin(), ids.end(), 0);
  auto rk = aca_assemble(gen, ids, ids, 1e-6);
  EXPECT_EQ(rk.rank(), 0);
}

template <class T>
class HMatrixTypedTest : public ::testing::Test {};
using Scalars = ::testing::Types<double, complexd>;
TYPED_TEST_SUITE(HMatrixTypedTest, Scalars);

template <class T>
std::unique_ptr<MatrixGenerator<T>> make_kernel(std::vector<Point3> pts);
template <>
std::unique_ptr<MatrixGenerator<double>> make_kernel(std::vector<Point3> pts) {
  return std::make_unique<LaplaceKernel>(std::move(pts), 2.0);
}
template <>
std::unique_ptr<MatrixGenerator<complexd>> make_kernel(
    std::vector<Point3> pts) {
  return std::make_unique<HelmholtzKernel>(std::move(pts), 2.0, 2.0);
}

TYPED_TEST(HMatrixTypedTest, AssembleMatchesDense) {
  using T = TypeParam;
  // n = 1040 at the paper's eps = 1e-3: compression must genuinely pay.
  auto pts = cylinder_points(40, 26);
  auto gen = make_kernel<T>(pts);
  ClusterTree tree(pts, 32);
  HOptions opt;
  opt.eps = 1e-3;
  auto H = HMatrix<T>::assemble(tree, tree, *gen, opt);
  auto ref = dense_tree_ordered<T>(*gen, tree, tree);
  auto D = H.to_dense();
  EXPECT_LT(rel_diff<T>(D.view(), ref.view()), 1e-2);
  EXPECT_LT(H.compression_ratio(), 0.6);
  EXPECT_GT(H.rk_leaves(), 0);
}

TYPED_TEST(HMatrixTypedTest, MultMatchesDense) {
  using T = TypeParam;
  auto pts = cylinder_points(20, 14);
  auto gen = make_kernel<T>(pts);
  ClusterTree tree(pts, 16);
  HOptions opt;
  opt.eps = 1e-8;
  auto H = HMatrix<T>::assemble(tree, tree, *gen, opt);
  auto ref = dense_tree_ordered<T>(*gen, tree, tree);

  const index_t n = H.rows();
  Rng rng(5);
  Matrix<T> X(n, 3);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < n; ++i) X(i, j) = rng.scalar<T>();

  Matrix<T> Y(n, 3), Y_ref(n, 3);
  H.mult(T{2}, ConstMatrixView<T>(X.view()), T{0}, Y.view());
  la::gemm(T{2}, ConstMatrixView<T>(ref.view()), la::Op::kNoTrans,
           ConstMatrixView<T>(X.view()), la::Op::kNoTrans, T{0}, Y_ref.view());
  EXPECT_LT(rel_diff<T>(Y.view(), Y_ref.view()), 1e-6);

  // Transposed product.
  Matrix<T> Z(n, 3), Z_ref(n, 3);
  H.mult(T{1}, ConstMatrixView<T>(X.view()), T{0}, Z.view(), la::Op::kTrans);
  la::gemm(T{1}, ConstMatrixView<T>(ref.view()), la::Op::kTrans,
           ConstMatrixView<T>(X.view()), la::Op::kNoTrans, T{0}, Z_ref.view());
  EXPECT_LT(rel_diff<T>(Z.view(), Z_ref.view()), 1e-6);
}

TYPED_TEST(HMatrixTypedTest, FromDenseRoundTrip) {
  using T = TypeParam;
  auto pts = cylinder_points(16, 12);
  auto gen = make_kernel<T>(pts);
  ClusterTree tree(pts, 16);
  auto ref = dense_tree_ordered<T>(*gen, tree, tree);
  HOptions opt;
  opt.eps = 1e-7;
  auto H = HMatrix<T>::from_dense(tree, tree, ConstMatrixView<T>(ref.view()),
                                  opt);
  auto D = H.to_dense();
  EXPECT_LT(rel_diff<T>(D.view(), ref.view()), 1e-5);
}

TYPED_TEST(HMatrixTypedTest, CompressedAxpyAccumulatesBlocks) {
  using T = TypeParam;
  auto pts = cylinder_points(16, 12);
  auto gen = make_kernel<T>(pts);
  ClusterTree tree(pts, 16);
  auto ref = dense_tree_ordered<T>(*gen, tree, tree);
  const index_t n = static_cast<index_t>(pts.size());

  HOptions opt;
  opt.eps = 1e-7;
  auto H = HMatrix<T>::zero(tree, tree, opt);
  // Add the dense matrix in vertical panels (multi-solve pattern).
  const index_t panel = 37;
  for (index_t c0 = 0; c0 < n; c0 += panel) {
    const index_t nc = std::min(panel, n - c0);
    H.add_dense_block(T{1}, ref.view().block(0, c0, n, nc), 0, c0);
  }
  auto D = H.to_dense();
  EXPECT_LT(rel_diff<T>(D.view(), ref.view()), 1e-5);

  // Subtracting in square blocks (multi-factorization pattern) returns to
  // (approximately) zero.
  const index_t sq = 61;
  for (index_t r0 = 0; r0 < n; r0 += sq)
    for (index_t c0 = 0; c0 < n; c0 += sq) {
      const index_t nr = std::min(sq, n - r0);
      const index_t nc = std::min(sq, n - c0);
      H.add_dense_block(T{-1}, ref.view().block(r0, c0, nr, nc), r0, c0);
    }
  auto Z = H.to_dense();
  EXPECT_LT(la::norm_fro<T>(Z.view()) / la::norm_fro<T>(ref.view()), 1e-5);
}

TEST(HMatrix, AddDenseBlockOutOfRangeThrows) {
  auto pts = cylinder_points(8, 8);
  ClusterTree tree(pts, 16);
  auto H = HMatrix<double>::zero(tree, tree, HOptions{});
  Matrix<double> D(10, 10);
  EXPECT_THROW(H.add_dense_block(1.0, D.view(), 60, 60), std::out_of_range);
}

TYPED_TEST(HMatrixTypedTest, LuSolveMatchesDense) {
  using T = TypeParam;
  auto pts = cylinder_points(20, 14);
  auto gen = make_kernel<T>(pts);
  ClusterTree tree(pts, 24);
  HOptions opt;
  opt.eps = 1e-9;
  auto H = HMatrix<T>::assemble(tree, tree, *gen, opt);
  auto ref = dense_tree_ordered<T>(*gen, tree, tree);

  const index_t n = H.rows();
  Rng rng(6);
  Matrix<T> X(n, 2);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i) X(i, j) = rng.scalar<T>();
  Matrix<T> B(n, 2);
  la::gemm(T{1}, ConstMatrixView<T>(ref.view()), la::Op::kNoTrans,
           ConstMatrixView<T>(X.view()), la::Op::kNoTrans, T{0}, B.view());

  H.lu_factorize();
  EXPECT_TRUE(H.factored());
  H.solve(B.view());
  EXPECT_LT(rel_diff<T>(B.view(), X.view()), 1e-5);
}

TEST(HMatrix, SolveBeforeFactorizeThrows) {
  auto pts = cylinder_points(8, 8);
  ClusterTree tree(pts, 16);
  auto H = HMatrix<double>::zero(tree, tree, HOptions{});
  Matrix<double> B(64, 1);
  EXPECT_THROW(H.solve(B.view()), std::logic_error);
}

TEST(HMatrix, LuAccuracyTracksEpsilon) {
  auto pts = cylinder_points(20, 12);
  LaplaceKernel gen(pts, 2.0);
  ClusterTree tree(pts, 24);
  auto ref = dense_tree_ordered<double>(gen, tree, tree);
  const index_t n = static_cast<index_t>(pts.size());
  Rng rng(7);
  Matrix<double> X(n, 1);
  for (index_t i = 0; i < n; ++i) X(i, 0) = rng.uniform(-1, 1);
  Matrix<double> B0(n, 1);
  la::gemm(1.0, ConstMatrixView<double>(ref.view()), la::Op::kNoTrans,
           ConstMatrixView<double>(X.view()), la::Op::kNoTrans, 0.0,
           B0.view());

  double prev = 1e9;
  for (double eps : {1e-2, 1e-5, 1e-9}) {
    HOptions opt;
    opt.eps = eps;
    auto H = HMatrix<double>::assemble(tree, tree, gen, opt);
    H.lu_factorize();
    Matrix<double> B = B0;
    H.solve(B.view());
    const double err = rel_diff<double>(B.view(), X.view());
    EXPECT_LT(err, 100 * eps);
    EXPECT_LE(err, prev * 10);  // roughly monotone in eps
    prev = err;
  }
}

TEST(HMatrix, RectangularAssembleAndMult) {
  // Interaction block between two different clouds (rows != cols trees).
  auto rows_pts = cylinder_points(14, 10);
  auto cols_pts = cylinder_points(10, 8, 1.0, 3.0);
  for (auto& p : cols_pts) p.x += 10.0;  // separated -> strongly admissible
  // A generator over the concatenated cloud.
  std::vector<Point3> all = rows_pts;
  all.insert(all.end(), cols_pts.begin(), cols_pts.end());
  LaplaceKernel gen(all, 2.0);
  const index_t m = static_cast<index_t>(rows_pts.size());
  const index_t n = static_cast<index_t>(cols_pts.size());

  // Wrap: block (i, j) of the rectangular matrix = gen(i, m + j).
  class OffsetGen final : public MatrixGenerator<double> {
   public:
    OffsetGen(const LaplaceKernel& g, index_t m, index_t n)
        : g_(g), m_(m), n_(n) {}
    index_t rows() const override { return m_; }
    index_t cols() const override { return n_; }
    double entry(index_t i, index_t j) const override {
      return g_.entry(i, m_ + j);
    }

   private:
    const LaplaceKernel& g_;
    index_t m_, n_;
  } rect(gen, m, n);

  ClusterTree row_tree(rows_pts, 16), col_tree(cols_pts, 16);
  HOptions opt;
  opt.eps = 1e-6;
  auto H = HMatrix<double>::assemble(row_tree, col_tree, rect, opt);
  EXPECT_EQ(H.rows(), m);
  EXPECT_EQ(H.cols(), n);
  // Separated clouds: the whole block should compress massively.
  EXPECT_LT(H.compression_ratio(), 0.5);

  auto D = dense_of<double>(rect);
  // to_dense must match up to eps (note: tree-ordered rows/cols).
  Matrix<double> Dt(m, n);
  const auto& ro = row_tree.original_of_tree();
  const auto& co = col_tree.original_of_tree();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      Dt(i, j) = D(ro[static_cast<std::size_t>(i)],
                   co[static_cast<std::size_t>(j)]);
  auto Hd = H.to_dense();
  EXPECT_LT(rel_diff<double>(Hd.view(), Dt.view()), 1e-5);
}

TEST(HMatrix, AddLowRankGlobalUpdate) {
  auto pts = cylinder_points(16, 12);
  LaplaceKernel gen(pts, 2.0);
  ClusterTree tree(pts, 16);
  HOptions opt;
  opt.eps = 1e-8;
  auto H = HMatrix<double>::assemble(tree, tree, gen, opt);
  auto before = H.to_dense();

  const index_t n = H.rows();
  Rng rng(8);
  la::RkFactors<double> rk;
  rk.U = Matrix<double>(n, 3);
  rk.V = Matrix<double>(n, 3);
  for (index_t c = 0; c < 3; ++c)
    for (index_t i = 0; i < n; ++i) {
      rk.U(i, c) = rng.uniform(-1, 1);
      rk.V(i, c) = rng.uniform(-1, 1);
    }
  H.add_low_rank(-2.0, rk);

  Matrix<double> expected = before;
  la::gemm(-2.0, ConstMatrixView<double>(rk.U.view()), la::Op::kNoTrans,
           ConstMatrixView<double>(rk.V.view()), la::Op::kTrans, 1.0,
           expected.view());
  auto after = H.to_dense();
  EXPECT_LT(rel_diff<double>(after.view(), expected.view()), 1e-5);

  la::RkFactors<double> bad;
  bad.U = Matrix<double>(n + 1, 1);
  bad.V = Matrix<double>(n, 1);
  EXPECT_THROW(H.add_low_rank(1.0, bad), std::invalid_argument);
}

TEST(HMatrix, StatsAreConsistent) {
  auto pts = cylinder_points(24, 16);
  LaplaceKernel gen(pts, 2.0);
  ClusterTree tree(pts, 24);
  HOptions opt;
  opt.eps = 1e-4;
  auto H = HMatrix<double>::assemble(tree, tree, gen, opt);
  EXPECT_GT(H.stored_entries(), 0);
  EXPECT_EQ(H.memory_bytes(), static_cast<std::size_t>(H.stored_entries()) *
                                  sizeof(double));
  EXPECT_GT(H.max_rank(), 0);
  EXPECT_GT(H.rk_leaves(), 0);
  EXPECT_GT(H.full_leaves(), 0);
  EXPECT_GT(H.compression_ratio(), 0.0);
  EXPECT_LT(H.compression_ratio(), 1.0);
}

// Structure sweep: H-LU and H-LDL^T must stay correct for every
// admissibility / leaf-size combination (different trees exercise different
// gemm and solve dispatch paths: mixed Full x Node products, transposed
// operands under H-LDL^T). The Laplace kernel is symmetric, so both
// factorizations apply.
class HStructureSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {
 protected:
  void check_solve(bool ldlt) {
    const auto [eta, leaf] = GetParam();
    auto pts = cylinder_points(18, 12);
    LaplaceKernel gen(pts, 2.0);
    ClusterTree tree(pts, leaf);
    HOptions opt;
    opt.eps = 1e-8;
    opt.eta = eta;
    auto H = HMatrix<double>::assemble(tree, tree, gen, opt);
    auto ref = dense_tree_ordered<double>(gen, tree, tree);

    const index_t n = H.rows();
    Rng rng(17);
    Matrix<double> X(n, 2);
    for (index_t j = 0; j < 2; ++j)
      for (index_t i = 0; i < n; ++i) X(i, j) = rng.uniform(-1, 1);
    Matrix<double> B(n, 2);
    la::gemm(1.0, ConstMatrixView<double>(ref.view()), la::Op::kNoTrans,
             ConstMatrixView<double>(X.view()), la::Op::kNoTrans, 0.0,
             B.view());
    if (ldlt) {
      H.ldlt_factorize();
    } else {
      H.lu_factorize();
    }
    H.solve(B.view());
    EXPECT_LT(rel_diff<double>(B.view(), X.view()), 1e-4)
        << (ldlt ? "H-LDLT" : "H-LU") << " eta=" << eta << " leaf=" << leaf;
  }
};

TEST_P(HStructureSweep, LuSolveCorrectAcrossStructures) {
  check_solve(/*ldlt=*/false);
}

TEST_P(HStructureSweep, LdltSolveCorrectAcrossStructures) {
  check_solve(/*ldlt=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    EtaAndLeaf, HStructureSweep,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0, 4.0),
                       ::testing::Values(8, 24, 64)));

TEST(HMatrix, LooserEpsCompressesMore) {
  auto pts = cylinder_points(24, 16);
  LaplaceKernel gen(pts, 2.0);
  ClusterTree tree(pts, 24);
  HOptions loose, tight;
  loose.eps = 1e-2;
  tight.eps = 1e-10;
  auto Hl = HMatrix<double>::assemble(tree, tree, gen, loose);
  auto Ht = HMatrix<double>::assemble(tree, tree, gen, tight);
  EXPECT_LT(Hl.stored_entries(), Ht.stored_entries());
}

}  // namespace
}  // namespace cs::hmat
