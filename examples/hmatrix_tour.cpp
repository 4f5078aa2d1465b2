// Tour of the standalone H-matrix library: compressed assembly of a BEM
// operator via ACA, accuracy/compression trade-off across eps, H-LDL^T
// and H-LU solves, and the compressed AXPY primitive the coupled
// algorithms are built on.
//
//   $ ./hmatrix_tour [--n-theta 32]
#include <cstdio>

#include "common/cli.h"
#include "common/random.h"
#include "fembem/bem.h"
#include "hmat/hmatrix.h"
#include "la/blas.h"

int main(int argc, char** argv) {
  using namespace cs;
  CliArgs args(argc, argv);
  args.describe("n-theta", "angular resolution of the surface (default 32)");
  args.check("Standalone H-matrix demo: ACA assembly, H-LDLT / H-LU, "
             "compressed AXPY.");

  // A cylinder surface and its Laplace single-layer BEM operator.
  fembem::PipeParams pp;
  pp.n_theta = static_cast<index_t>(args.get_int("n-theta", 32));
  pp.n_axial = 2 * pp.n_theta;
  pp.n_radial = 3;
  auto mesh = fembem::make_pipe_mesh(pp);
  fembem::BemGenerator<double> kernel(fembem::make_bem_surface(mesh), 0.0,
                                      /*symmetric=*/true);
  const index_t n = kernel.rows();
  std::printf("BEM operator on %d surface dofs (dense would be %s)\n", n,
              format_bytes(static_cast<std::size_t>(n) * n * 8).c_str());

  hmat::ClusterTree tree(kernel.surface().points, 48);
  std::printf("cluster tree: %d nodes, depth %d\n\n", tree.node_count(),
              tree.depth());

  std::printf("%-8s %-12s %-10s %-10s\n", "eps", "storage", "ratio",
              "max rank");
  for (double eps : {1e-2, 1e-4, 1e-6}) {
    hmat::HOptions opt;
    opt.eps = eps;
    auto H = hmat::HMatrix<double>::assemble(tree, tree, kernel, opt);
    std::printf("%-8.0e %-12s %-10.3f %-10d\n", eps,
                format_bytes(H.memory_bytes()).c_str(),
                H.compression_ratio(), H.max_rank());
  }

  // Solve S x = b at eps = 1e-6 and verify against a matvec.
  hmat::HOptions opt;
  opt.eps = 1e-6;
  auto H = hmat::HMatrix<double>::assemble(tree, tree, kernel, opt);

  Rng rng(1);
  la::Matrix<double> x_ref(n, 1), b(n, 1);
  for (index_t i = 0; i < n; ++i) x_ref(i, 0) = rng.uniform(-1, 1);
  H.mult(1.0, la::ConstMatrixView<double>(x_ref.view()), 0.0, b.view());

  // The operator is symmetric, so it gets the symmetric H-LDL^T (the
  // paper's HMAT mode), as the coupled solver's Schur H-matrix does.
  auto H_sym = hmat::HMatrix<double>::assemble(tree, tree, kernel, opt);
  H_sym.ldlt_factorize();
  la::Matrix<double> x = b;
  H_sym.solve(x.view());
  std::printf("\nH-LDLT solve relative error: %.2e\n",
              la::rel_diff<double>(x.view(), x_ref.view()));

  // H-LU covers unsymmetric operators and is the fallback after an
  // H-LDL^T pivot breakdown; it gives the same answer here.
  auto H_lu = hmat::HMatrix<double>::assemble(tree, tree, kernel, opt);
  H_lu.lu_factorize();
  la::Matrix<double> x2 = b;
  H_lu.solve(x2.view());
  std::printf("H-LU solve relative error  : %.2e\n",
              la::rel_diff<double>(x2.view(), x_ref.view()));

  // Compressed AXPY: fold a dense rank-structured update into H.
  la::Matrix<double> update(n, 64);
  for (index_t j = 0; j < 64; ++j)
    for (index_t i = 0; i < n; ++i)
      update(i, j) = 0.01 / (1.0 + i + 2.0 * j);
  const auto before = H.stored_entries();
  H.add_dense_block(1.0, la::ConstMatrixView<double>(update.view()), 0, 0);
  std::printf("compressed AXPY of a %d x 64 dense panel: stored entries "
              "%lld -> %lld\n", n, static_cast<long long>(before),
              static_cast<long long>(H.stored_entries()));
  return 0;
}
