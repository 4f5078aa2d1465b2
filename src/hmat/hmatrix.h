// Hierarchical (H-) matrices: compressed storage, algebra and direct
// solution for the dense BEM blocks and Schur complements of the coupled
// solver (the library's hmat-oss analogue).
//
// An HMatrix is a quadtree over a pair of cluster trees. Each block is
//  * subdivided (kNode) when both clusters have children and the block is
//    not admissible,
//  * a rank-k leaf (kRk, U V^T factors) when eta-admissible,
//  * a dense leaf (kFull) otherwise.
//
// Provided operations (all coordinates are *tree-ordered*; callers permute
// their data once with ClusterTree::tree_of_original):
//  * assemble()        : direct compressed assembly via ACA from a kernel
//                        generator ("low-rank assembly scheme");
//  * from_dense()/zero(): structure-preserving constructors;
//  * mult()            : y := a op(H) x + b y for dense x, y;
//  * add_dense_block() : the paper's "compressed AXPY" -- a dense update
//                        (a retrieved Schur block) is compressed per leaf
//                        and accumulated with Rk recompression at eps;
//  * ldlt_factorize()/lu_factorize()/solve(): in-place H-LDL^T for
//                        symmetric data (the paper's HMAT mode; unpivoted)
//                        and H-LU for the general case (no global
//                        pivoting; dense diagonal leaves use partially
//                        pivoted LU). The coupled solver picks H-LDL^T on
//                        a symmetric system and H-LU otherwise, and falls
//                        back to H-LU after an H-LDL^T pivot breakdown.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "common/trace.h"
#include "hmat/aca.h"
#include "hmat/cluster.h"
#include "la/factor.h"
#include "la/io.h"
#include "la/qr_svd.h"

namespace cs::hmat {

struct HOptions {
  double eps = 1e-3;      ///< compression / recompression accuracy
  double eta = 2.0;       ///< admissibility parameter
  index_t rk_min_dim = 16;  ///< below this, blocks stay dense
  index_t aca_max_rank_ratio = 2;  ///< ACA rank cap = min(m,n)/ratio
};

/// Recyclable assembly state of one H-matrix block structure across a
/// frequency sweep. The structure itself is deterministic in (cluster
/// tree, HOptions); the skeleton captures it once (block kinds in DFS
/// pre-order) so later assemblies of the same operator family skip the
/// per-block admissibility derivation, and records each leaf's converged
/// assembly outcome (ACA rank or dense fallback, in DFS leaf order) to
/// warm-start the next frequency's adaptive compression. Scalar
/// independent: the hints are starting points, not results.
struct BlockSkeleton {
  static constexpr index_t kNoHint = -1;        ///< no usable hint
  static constexpr index_t kDenseFallback = -2; ///< ACA stagnated last time
  /// Headroom added to a hinted rank before it caps the warm-started ACA:
  /// a block whose rank grew by more than this between neighboring
  /// frequencies re-runs uncapped (a counted miss).
  static constexpr index_t kRankHintMargin = 8;

  index_t rows = 0, cols = 0;        ///< identity check before reuse
  std::vector<std::uint8_t> kinds;   ///< block kinds, DFS pre-order
  std::vector<index_t> leaf_hints;   ///< per-leaf outcome, DFS leaf order

  bool empty() const { return kinds.empty(); }
};

template <class T>
class HMatrix {
 public:
  enum class Kind { kNode, kFull, kRk };

  /// Compressed assembly from a kernel generator. `gen` is indexed in
  /// original ids; rows/cols cluster trees supply the orderings.
  static HMatrix assemble(const ClusterTree& rows, const ClusterTree& cols,
                          const MatrixGenerator<T>& gen,
                          const HOptions& opt) {
    TraceSpan span("hmat", "hmat.assemble");
    span.arg("rows", static_cast<long long>(rows.root().size()))
        .arg("cols", static_cast<long long>(cols.root().size()));
    HMatrix h = build_structure(rows.root(), cols.root(), opt);
    h.fill_from_generator(gen, rows.original_of_tree(),
                          cols.original_of_tree());
    return h;
  }

  /// Warm assembly for frequency sweeps: replay the block structure
  /// recorded in `warm` (skipping the per-block admissibility derivation)
  /// and seed each adaptive leaf compression with its outcome at the
  /// previous frequency. An empty or mismatching skeleton degrades to the
  /// cold path. On return the skeleton holds this assembly's structure and
  /// outcomes, ready for the next frequency. Legality: the structure
  /// depends only on cluster geometry and options, both invariant under an
  /// operator shift; the hints are capacity seeds that never change which
  /// crosses ACA builds, so warm and cold assemblies of a given operator
  /// produce identical factors.
  static HMatrix assemble(const ClusterTree& rows, const ClusterTree& cols,
                          const MatrixGenerator<T>& gen, const HOptions& opt,
                          BlockSkeleton& warm) {
    TraceSpan span("hmat", "hmat.assemble");
    span.arg("rows", static_cast<long long>(rows.root().size()))
        .arg("cols", static_cast<long long>(cols.root().size()));
    HMatrix h;
    bool reused = false;
    if (!warm.empty() && warm.rows == rows.root().size() &&
        warm.cols == cols.root().size()) {
      bool ok = true;
      std::size_t cursor = 0;
      HMatrix replay = build_structure_from(rows.root(), cols.root(), opt,
                                            warm.kinds, cursor, ok);
      if (ok && cursor == warm.kinds.size()) {
        h = std::move(replay);
        reused = true;
        Metrics::instance().add(Metric::kHmatStructureReuses, 1);
      }
    }
    if (!reused) {
      h = build_structure(rows.root(), cols.root(), opt);
      warm.rows = rows.root().size();
      warm.cols = cols.root().size();
      warm.kinds.clear();
      // Recorded before filling so build-time demotions (Rk leaves turned
      // dense because compression did not pay) stay out of the structural
      // record; they recur naturally at each frequency.
      h.record_kinds(warm.kinds);
      warm.leaf_hints.clear();  // hints are keyed to the recorded leaf order
    }
    std::vector<index_t> outcomes;
    h.fill_from_generator(gen, rows.original_of_tree(),
                          cols.original_of_tree(),
                          reused ? &warm.leaf_hints : nullptr, &outcomes);
    warm.leaf_hints = std::move(outcomes);
    return h;
  }

  /// Structure-preserving compression of a dense matrix given in
  /// tree-ordered coordinates.
  static HMatrix from_dense(const ClusterTree& rows, const ClusterTree& cols,
                            la::ConstMatrixView<T> dense,
                            const HOptions& opt) {
    HMatrix h = build_structure(rows.root(), cols.root(), opt);
    h.fill_from_dense(dense);
    return h;
  }

  /// All-zero H-matrix with the admissibility structure (rank-0 Rk leaves,
  /// zero dense leaves). The Schur accumulator of the coupled algorithms
  /// starts from this.
  static HMatrix zero(const ClusterTree& rows, const ClusterTree& cols,
                      const HOptions& opt) {
    HMatrix h = build_structure(rows.root(), cols.root(), opt);
    h.fill_zero();
    return h;
  }

  index_t rows() const { return row_->size(); }
  index_t cols() const { return col_->size(); }
  Kind kind() const { return kind_; }
  const HOptions& options() const { return opt_; }

  /// y := alpha * op(H) * x + beta * y (dense multi-vectors, tree order).
  void mult(T alpha, la::ConstMatrixView<T> X, T beta, la::MatrixView<T> Y,
            la::Op op = la::Op::kNoTrans) const {
    if (beta != T{1}) la::scale(beta, Y);
    mult_add(alpha, X, Y, op);
  }

  /// Compressed AXPY: this += alpha * D placed at absolute tree
  /// coordinates (row0, col0). Dense leaves accumulate directly; Rk leaves
  /// compress the incoming block and recompress at eps.
  void add_dense_block(T alpha, la::ConstMatrixView<T> D, index_t row0,
                       index_t col0) {
    if (D.rows() == 0 || D.cols() == 0) return;
    if (row0 < row_->begin || row0 + D.rows() > row_->end ||
        col0 < col_->begin || col0 + D.cols() > col_->end)
      throw std::out_of_range("add_dense_block outside matrix");
    TraceSpan span("hmat", "hmat.axpy");
    span.arg("rows", static_cast<long long>(D.rows()))
        .arg("cols", static_cast<long long>(D.cols()));
    // The update rectangle intersects each leaf in at most one sub-block,
    // so the per-leaf jobs write disjoint storage: collect them first, then
    // recompress in parallel (the dominant cost of the compressed AXPY).
    std::vector<AxpyJob> jobs;
    collect_axpy_jobs(D, row0, col0, jobs);
    parallel_for_capture(jobs.size(), [&](std::size_t l) {
      jobs[l].leaf->apply_axpy_leaf(alpha, jobs[l].D, jobs[l].row0,
                                    jobs[l].col0);
    });
  }

  /// Global low-rank update: this += alpha * U V^T over the whole matrix
  /// (Rk leaves recompress at eps). Used by the randomized compressed-Schur
  /// extension, where the Schur correction arrives directly as factors.
  void add_low_rank(T alpha, const la::RkFactors<T>& rk) {
    if (rk.U.rows() != rows() || rk.V.rows() != cols())
      throw std::invalid_argument("low-rank update dimension mismatch");
    add_rk(alpha, rk);
  }

  /// Dense materialization (tests / small blocks only).
  la::Matrix<T> to_dense() const {
    la::Matrix<T> out(rows(), cols());
    to_dense_rec(out.view(), row_->begin, col_->begin);
    return out;
  }

  /// Serialize the H-matrix payload (leaf kinds, dense/Rk factors, pivots,
  /// factorization flags) via a depth-first walk. The block *structure* is
  /// not stored: it is rebuilt deterministically from the cluster tree and
  /// options on load, and the stored kinds are checked against it.
  void save(serialize::Writer& w) const {
    w.write_u8(factored_ ? 1 : 0);
    w.write_u8(ldlt_ ? 1 : 0);
    save_rec(w);
  }

  /// Rebuild an H-matrix from a checkpoint section: structure from
  /// (rows, cols, opt), payload streamed from the reader. A stored dense
  /// leaf where the structure says Rk is a legitimate demotion
  /// (compression that did not pay at build time); any other kind
  /// mismatch is corruption and throws ClassifiedError at ckpt.corrupt.
  static HMatrix load(const ClusterTree& rows, const ClusterTree& cols,
                      const HOptions& opt, serialize::Reader& in) {
    HMatrix h = build_structure(rows.root(), cols.root(), opt);
    h.factored_ = in.read_u8() != 0;
    h.ldlt_ = in.read_u8() != 0;
    h.load_rec(in);
    return h;
  }

  /// In-place H-LU factorization (square blocks on one cluster tree). The
  /// recursion runs as an OpenMP task graph: the two off-diagonal panel
  /// solves of each level are independent tasks and the trailing-block
  /// Schur-update GEMMs fan out per target quadrant.
  void lu_factorize() {
    if (row_ != col_)
      throw std::logic_error("H-LU requires a square H-matrix on one tree");
    TraceSpan span("hmat", "hlu.factor");
    span.arg("n", static_cast<long long>(rows()));
    run_factor_entry([&](int depth) { lu_rec(depth); });
    factored_ = true;
    ldlt_ = false;
  }
  bool factored() const { return factored_; }

  /// In-place H-LDL^T factorization for *symmetric* data (the classic
  /// symmetric H-solver mode, as in the paper's HMAT): only the diagonal
  /// and strictly-lower blocks are read and written; upper blocks become
  /// stale and are ignored by solve(). Unpivoted, like the dense LDL^T.
  void ldlt_factorize() {
    if (row_ != col_)
      throw std::logic_error("H-LDLT requires a square H-matrix on one tree");
    TraceSpan span("hmat", "hldlt.factor");
    span.arg("n", static_cast<long long>(rows()));
    run_factor_entry([&](int depth) { ldlt_rec(depth); });
    factored_ = true;
    ldlt_ = true;
  }

  /// In-place solve A X = B after lu_factorize() / ldlt_factorize(); B is
  /// tree-ordered.
  void solve(la::MatrixView<T> B) const {
    if (!factored_)
      throw std::logic_error("solve() before a factorization");
    assert(B.rows() == rows());
    trsm_dense(*this, la::Uplo::kLower, la::Op::kNoTrans, B);
    if (ldlt_) {
      scale_by_diag_inv(*this, B);
      trsm_dense(*this, la::Uplo::kLower, la::Op::kTrans, B);
    } else {
      trsm_dense(*this, la::Uplo::kUpper, la::Op::kNoTrans, B);
    }
  }

  // -- statistics ----------------------------------------------------------

  offset_t stored_entries() const {
    offset_t total = 0;
    visit([&](const HMatrix& h) {
      if (h.kind_ == Kind::kFull) {
        total += static_cast<offset_t>(h.full_.rows()) * h.full_.cols();
      } else if (h.kind_ == Kind::kRk) {
        total += static_cast<offset_t>(h.rk_.U.rows()) * h.rk_.U.cols() +
                 static_cast<offset_t>(h.rk_.V.rows()) * h.rk_.V.cols();
      }
    });
    return total;
  }

  std::size_t memory_bytes() const {
    return static_cast<std::size_t>(stored_entries()) * sizeof(T);
  }

  index_t max_rank() const {
    index_t r = 0;
    visit([&](const HMatrix& h) {
      if (h.kind_ == Kind::kRk) r = std::max(r, h.rk_.rank());
    });
    return r;
  }

  offset_t rk_leaves() const {
    offset_t c = 0;
    visit([&](const HMatrix& h) { c += h.kind_ == Kind::kRk ? 1 : 0; });
    return c;
  }
  offset_t full_leaves() const {
    offset_t c = 0;
    visit([&](const HMatrix& h) { c += h.kind_ == Kind::kFull ? 1 : 0; });
    return c;
  }

  /// Storage relative to the dense equivalent (1.0 = no compression).
  double compression_ratio() const {
    const double dense =
        static_cast<double>(rows()) * static_cast<double>(cols());
    return dense > 0 ? static_cast<double>(stored_entries()) / dense : 0.0;
  }

 private:
  HMatrix() = default;

  static HMatrix build_structure(const ClusterNode& rn, const ClusterNode& cn,
                                 const HOptions& opt) {
    HMatrix h;
    h.row_ = &rn;
    h.col_ = &cn;
    h.opt_ = opt;
    const bool big_enough =
        rn.size() >= opt.rk_min_dim && cn.size() >= opt.rk_min_dim;
    if (big_enough && admissible(rn, cn, opt.eta)) {
      h.kind_ = Kind::kRk;
    } else if (!rn.is_leaf() && !cn.is_leaf()) {
      h.kind_ = Kind::kNode;
      const ClusterNode* rks[2] = {rn.left.get(), rn.right.get()};
      const ClusterNode* cks[2] = {cn.left.get(), cn.right.get()};
      for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
          h.child_[static_cast<std::size_t>(2 * i + j)] =
              std::make_unique<HMatrix>(
                  build_structure(*rks[i], *cks[j], opt));
    } else {
      h.kind_ = Kind::kFull;
    }
    return h;
  }

  /// Rebuild the block structure by replaying a recorded DFS pre-order
  /// kind sequence instead of deriving admissibility per block. Sets `ok`
  /// to false (and stops descending) when the record cannot match this
  /// cluster tree: sequence exhausted, unknown kind, or a recorded Node
  /// over leaf clusters.
  static HMatrix build_structure_from(const ClusterNode& rn,
                                      const ClusterNode& cn,
                                      const HOptions& opt,
                                      const std::vector<std::uint8_t>& kinds,
                                      std::size_t& cursor, bool& ok) {
    HMatrix h;
    h.row_ = &rn;
    h.col_ = &cn;
    h.opt_ = opt;
    if (cursor >= kinds.size() ||
        kinds[cursor] > static_cast<std::uint8_t>(Kind::kRk)) {
      ok = false;
      return h;
    }
    h.kind_ = static_cast<Kind>(kinds[cursor++]);
    if (h.kind_ == Kind::kNode) {
      if (rn.is_leaf() || cn.is_leaf()) {
        ok = false;
        return h;
      }
      const ClusterNode* rks[2] = {rn.left.get(), rn.right.get()};
      const ClusterNode* cks[2] = {cn.left.get(), cn.right.get()};
      for (int i = 0; i < 2 && ok; ++i)
        for (int j = 0; j < 2 && ok; ++j)
          h.child_[static_cast<std::size_t>(2 * i + j)] =
              std::make_unique<HMatrix>(build_structure_from(
                  *rks[i], *cks[j], opt, kinds, cursor, ok));
    }
    return h;
  }

  /// Append this subtree's block kinds in DFS pre-order (the order
  /// build_structure_from replays them in).
  void record_kinds(std::vector<std::uint8_t>& out) const {
    out.push_back(static_cast<std::uint8_t>(kind_));
    if (kind_ == Kind::kNode)
      for (const auto& c : child_) c->record_kinds(out);
  }

  HMatrix& child(int i, int j) {
    return *child_[static_cast<std::size_t>(2 * i + j)];
  }
  const HMatrix& child(int i, int j) const {
    return *child_[static_cast<std::size_t>(2 * i + j)];
  }

  template <class F>
  void visit(F&& f) const {
    f(*this);
    if (kind_ == Kind::kNode)
      for (const auto& c : child_) c->visit(f);
  }

  void save_rec(serialize::Writer& w) const {
    w.write_u8(static_cast<std::uint8_t>(kind_));
    switch (kind_) {
      case Kind::kNode:
        for (const auto& c : child_) c->save_rec(w);
        break;
      case Kind::kFull:
        serialize::write_vec(w, piv_);
        la::write_matrix(w, full_);
        break;
      case Kind::kRk:
        la::write_rk(w, rk_);
        break;
    }
  }

  void load_rec(serialize::Reader& in) {
    const auto stored = static_cast<Kind>(in.read_u8());
    if (stored == Kind::kFull && kind_ == Kind::kRk) {
      kind_ = Kind::kFull;  // demoted at build time: accept
    } else if (stored != kind_) {
      throw ClassifiedError(
          ErrorCode::kIo, "ckpt.corrupt",
          "H-matrix block kind does not match the deterministic structure");
    }
    switch (kind_) {
      case Kind::kNode:
        for (auto& c : child_) c->load_rec(in);
        break;
      case Kind::kFull: {
        piv_ = serialize::read_vec<index_t>(in);
        MemoryScope scope(MemTag::kHmatDense);
        full_ = la::read_matrix<T>(in);
        if (full_.rows() != rows() || full_.cols() != cols())
          throw ClassifiedError(ErrorCode::kIo, "ckpt.corrupt",
                                "H-matrix dense leaf dimension mismatch");
        break;
      }
      case Kind::kRk: {
        MemoryScope scope(MemTag::kHmatRk);
        rk_ = la::read_rk<T>(in);
        if (rk_.U.rows() != rows() || rk_.V.rows() != cols() ||
            rk_.U.cols() != rk_.V.cols())
          throw ClassifiedError(ErrorCode::kIo, "ckpt.corrupt",
                                "H-matrix Rk leaf dimension mismatch");
        break;
      }
    }
  }

  // -- assembly -------------------------------------------------------------

  void collect_leaves(std::vector<HMatrix*>& out) {
    if (kind_ == Kind::kNode) {
      for (auto& c : child_) c->collect_leaves(out);
    } else {
      out.push_back(this);
    }
  }

  /// Fill every leaf from the generator. When `hints`/`outcomes` are
  /// given (frequency-sweep warm start) they are indexed by the
  /// deterministic DFS leaf order, so warm-started assembly is identical
  /// at any thread count.
  void fill_from_generator(const MatrixGenerator<T>& gen,
                           const std::vector<index_t>& row_orig,
                           const std::vector<index_t>& col_orig,
                           const std::vector<index_t>* hints = nullptr,
                           std::vector<index_t>* outcomes = nullptr) {
    // Leaves are independent: assemble them in parallel (the paper's
    // multi-threaded H assembly). parallel_for_capture keeps exceptions
    // (e.g. BudgetExceeded) from escaping the parallel region.
    std::vector<HMatrix*> leaves;
    collect_leaves(leaves);
    if (outcomes) outcomes->assign(leaves.size(), BlockSkeleton::kNoHint);
    parallel_for_capture(leaves.size(), [&](std::size_t l) {
      const index_t hint = hints && l < hints->size()
                               ? (*hints)[l]
                               : BlockSkeleton::kNoHint;
      const index_t got = leaves[l]->fill_leaf(gen, row_orig, col_orig, hint);
      if (outcomes) (*outcomes)[l] = got;
    });
  }

  /// Assemble one leaf. Returns the leaf's outcome for the next sweep
  /// frequency: the converged ACA rank, BlockSkeleton::kDenseFallback when
  /// the adaptive compression stagnated, or kNoHint for dense leaves.
  index_t fill_leaf(const MatrixGenerator<T>& gen,
                    const std::vector<index_t>& row_orig,
                    const std::vector<index_t>& col_orig, index_t hint) {
    index_t outcome = BlockSkeleton::kNoHint;
    switch (kind_) {
      case Kind::kNode:
        throw std::logic_error("fill_leaf called on an interior block");
      case Kind::kRk: {
        // Ledger: low-rank leaf storage (and its ACA/RRQR scratch). The
        // scope lives here, inside the per-leaf call, because assembly
        // runs leaves on arbitrary worker threads.
        MemoryScope scope(MemTag::kHmatRk);
        std::vector<index_t> rids(row_orig.begin() + row_->begin,
                                  row_orig.begin() + row_->end);
        std::vector<index_t> cids(col_orig.begin() + col_->begin,
                                  col_orig.begin() + col_->end);
        const index_t cap = std::max<index_t>(
            1, std::min(rows(), cols()) /
                   std::max<index_t>(1, opt_.aca_max_rank_ratio));
        // The failpoint simulates ACA stagnating on this block (rank cap
        // reached without meeting eps): the recovery is the same in-place
        // dense fallback a real non-convergence takes.
        const bool forced_fallback = failpoint("aca.converge");
        // A kDenseFallback hint means ACA stagnated here at the previous
        // frequency: the shifted neighbor skips the doomed run and goes
        // straight to the dense compression the cold path ends in.
        bool fell_back =
            forced_fallback || hint == BlockSkeleton::kDenseFallback;
        if (!fell_back) {
          index_t run_cap = cap;
          if (hint >= 0)
            run_cap = std::min<index_t>(
                cap, hint + BlockSkeleton::kRankHintMargin);
          rk_ = aca_assemble(gen, rids, cids, real_of_t<T>(opt_.eps),
                             run_cap, hint);
          if (run_cap < cap && rk_.rank() >= run_cap) {
            // The hinted cap bound: the block's rank outgrew the
            // warm-start window. Re-run unrestricted so the factors match
            // the cold path's exactly.
            Metrics::instance().add(Metric::kAcaRankHintMisses, 1);
            rk_ = aca_assemble(gen, rids, cids, real_of_t<T>(opt_.eps), cap);
          } else if (run_cap < cap) {
            Metrics::instance().add(Metric::kAcaRankHintHits, 1);
          }
          fell_back = rk_.rank() >= cap && cap < std::min(rows(), cols());
          if (!fell_back) outcome = rk_.rank();
        }
        if (fell_back) {
          // ACA did not converge within the rank cap: fall back to dense
          // evaluation + deterministic compression.
          Metrics::instance().add(Metric::kAcaFallbacks, 1);
          trace_instant("hmat", "aca.fallback");
          la::Matrix<T> dense(rows(), cols());
          for (index_t j = 0; j < cols(); ++j)
            gen.col(cids[static_cast<std::size_t>(j)], rids.data(), rows(),
                    &dense(0, j));
          rk_ = la::rrqr_compress(la::ConstMatrixView<T>(dense.view()),
                                  real_of_t<T>(opt_.eps));
          outcome = BlockSkeleton::kDenseFallback;
        } else {
          // ACA overestimates the rank; recompress (ACA+).
          la::truncate_rk(rk_, real_of_t<T>(opt_.eps));
        }
        demote_if_uneconomical();
        break;
      }
      case Kind::kFull: {
        MemoryScope scope(MemTag::kHmatDense);
        full_ = la::Matrix<T>(rows(), cols());
        std::vector<index_t> rids(row_orig.begin() + row_->begin,
                                  row_orig.begin() + row_->end);
        for (index_t j = 0; j < cols(); ++j)
          gen.col(col_orig[static_cast<std::size_t>(col_->begin + j)],
                  rids.data(), rows(), &full_(0, j));
        break;
      }
    }
    return outcome;
  }

  void fill_from_dense(la::ConstMatrixView<T> dense) {
    // `dense` is the whole matrix in tree coordinates; pick our block.
    switch (kind_) {
      case Kind::kNode:
        for (auto& c : child_) c->fill_from_dense(dense);
        break;
      case Kind::kRk: {
        MemoryScope scope(MemTag::kHmatRk);
        rk_ = la::rrqr_compress(
            dense.block(row_->begin, col_->begin, rows(), cols()),
            real_of_t<T>(opt_.eps));
        demote_if_uneconomical();
        break;
      }
      case Kind::kFull: {
        MemoryScope scope(MemTag::kHmatDense);
        full_ = la::Matrix<T>(rows(), cols());
        full_.view().copy_from(
            dense.block(row_->begin, col_->begin, rows(), cols()));
        break;
      }
    }
  }

  /// Turn an Rk leaf whose factors are bigger than the dense block into a
  /// dense leaf (compression that does not pay is not kept).
  void demote_if_uneconomical() {
    if (kind_ != Kind::kRk) return;
    const offset_t rk_entries =
        static_cast<offset_t>(rk_.rank()) * (rows() + cols());
    if (rk_entries < static_cast<offset_t>(rows()) * cols()) return;
    MemoryScope scope(MemTag::kHmatDense);
    full_ = la::Matrix<T>(rows(), cols());
    la::gemm(T{1}, rk_.U.view(), la::Op::kNoTrans, rk_.V.view(), la::Op::kTrans,
             T{0}, full_.view());
    rk_ = la::RkFactors<T>{};
    kind_ = Kind::kFull;
  }

  void fill_zero() {
    switch (kind_) {
      case Kind::kNode:
        for (auto& c : child_) c->fill_zero();
        break;
      case Kind::kRk: {
        MemoryScope scope(MemTag::kHmatRk);
        rk_.U = la::Matrix<T>(rows(), 0);
        rk_.V = la::Matrix<T>(cols(), 0);
        break;
      }
      case Kind::kFull: {
        MemoryScope scope(MemTag::kHmatDense);
        full_ = la::Matrix<T>(rows(), cols());
        break;
      }
    }
  }

  // -- mat-vec / mat-dense --------------------------------------------------

  /// Y += alpha * op(this) * X, with X, Y spanning this block exactly.
  void mult_add(T alpha, la::ConstMatrixView<T> X, la::MatrixView<T> Y,
                la::Op op) const {
    const index_t nrhs = X.cols();
    switch (kind_) {
      case Kind::kNode: {
        const index_t r0 = row_->begin, c0 = col_->begin;
        for (int i = 0; i < 2; ++i)
          for (int j = 0; j < 2; ++j) {
            const auto& ch = child(i, j);
            const index_t rb = ch.row_->begin - r0, rn = ch.rows();
            const index_t cb = ch.col_->begin - c0, cn = ch.cols();
            if (op == la::Op::kNoTrans) {
              ch.mult_add(alpha, X.block(cb, 0, cn, nrhs),
                          Y.block(rb, 0, rn, nrhs), op);
            } else {
              ch.mult_add(alpha, X.block(rb, 0, rn, nrhs),
                          Y.block(cb, 0, cn, nrhs), op);
            }
          }
        break;
      }
      case Kind::kFull:
        la::gemm(alpha, la::ConstMatrixView<T>(full_.view()), op, X,
                 la::Op::kNoTrans, T{1}, Y);
        break;
      case Kind::kRk: {
        if (rk_.rank() == 0) break;
        la::Matrix<T> tmp(rk_.rank(), nrhs);
        if (op == la::Op::kNoTrans) {
          // Y += alpha U (V^T X).
          la::gemm(T{1}, rk_.V.view(), la::Op::kTrans, X, la::Op::kNoTrans,
                   T{0}, tmp.view());
          la::gemm(alpha, rk_.U.view(), la::Op::kNoTrans,
                   la::ConstMatrixView<T>(tmp.view()), la::Op::kNoTrans, T{1},
                   Y);
        } else {
          // Y += alpha V (U^T X)   [(U V^T)^T = V U^T, plain transpose].
          la::gemm(T{1}, rk_.U.view(), la::Op::kTrans, X, la::Op::kNoTrans,
                   T{0}, tmp.view());
          la::gemm(alpha, rk_.V.view(), la::Op::kNoTrans,
                   la::ConstMatrixView<T>(tmp.view()), la::Op::kNoTrans, T{1},
                   Y);
        }
        break;
      }
    }
  }

  // -- compressed AXPY ------------------------------------------------------

  /// One leaf-local piece of a compressed AXPY: `leaf` accumulates `D`
  /// placed at absolute tree coordinates (row0, col0).
  struct AxpyJob {
    HMatrix* leaf;
    la::ConstMatrixView<T> D;
    index_t row0, col0;
  };

  void collect_axpy_jobs(la::ConstMatrixView<T> D, index_t row0, index_t col0,
                         std::vector<AxpyJob>& out) {
    if (kind_ != Kind::kNode) {
      out.push_back(AxpyJob{this, D, row0, col0});
      return;
    }
    for (const auto& c : child_) {
      // Intersect [row0, row0+m) x [col0, col0+n) with the child.
      const index_t r_lo = std::max(row0, c->row_->begin);
      const index_t r_hi = std::min(row0 + D.rows(), c->row_->end);
      const index_t c_lo = std::max(col0, c->col_->begin);
      const index_t c_hi = std::min(col0 + D.cols(), c->col_->end);
      if (r_lo >= r_hi || c_lo >= c_hi) continue;
      c->collect_axpy_jobs(
          D.block(r_lo - row0, c_lo - col0, r_hi - r_lo, c_hi - c_lo), r_lo,
          c_lo, out);
    }
  }

  void apply_axpy_leaf(T alpha, la::ConstMatrixView<T> D, index_t row0,
                       index_t col0) {
    switch (kind_) {
      case Kind::kNode:
        throw std::logic_error("apply_axpy_leaf on a node");
      case Kind::kFull:
        la::axpy(alpha, D,
                 full_.view().block(row0 - row_->begin, col0 - col_->begin,
                                    D.rows(), D.cols()));
        break;
      case Kind::kRk: {
        // Compress the incoming block, pad into leaf coordinates and
        // recompress (the paper's compressed AXPY with recompression).
        MemoryScope scope(MemTag::kHmatRk);
        auto upd = la::rrqr_compress(D, real_of_t<T>(opt_.eps));
        if (upd.rank() == 0) break;
        const index_t k = upd.rank();
        la::Matrix<T> U(rows(), k);
        la::Matrix<T> V(cols(), k);
        for (index_t c = 0; c < k; ++c) {
          for (index_t i = 0; i < D.rows(); ++i)
            U(row0 - row_->begin + i, c) = alpha * upd.U(i, c);
          for (index_t j = 0; j < D.cols(); ++j)
            V(col0 - col_->begin + j, c) = upd.V(j, c);
        }
        add_rk_factors(U.view(), V.view());
        break;
      }
    }
  }

  /// this(Rk leaf) += U V^T followed by recompression.
  void add_rk_factors(la::ConstMatrixView<T> U, la::ConstMatrixView<T> V) {
    assert(kind_ == Kind::kRk);
    MemoryScope scope(MemTag::kHmatRk);
    const index_t k0 = rk_.rank();
    const index_t k1 = U.cols();
    la::RkFactors<T> merged;
    merged.U = la::Matrix<T>(rows(), k0 + k1);
    merged.V = la::Matrix<T>(cols(), k0 + k1);
    if (k0 > 0) {
      merged.U.block(0, 0, rows(), k0).copy_from(rk_.U.view());
      merged.V.block(0, 0, cols(), k0).copy_from(rk_.V.view());
    }
    merged.U.block(0, k0, rows(), k1).copy_from(U);
    merged.V.block(0, k0, cols(), k1).copy_from(V);
    la::truncate_rk(merged, real_of_t<T>(opt_.eps));
    Metrics::instance().add(Metric::kRecompressions, 1);
    Metrics::instance().observe_max(Metric::kRecompressRankMax,
                                    static_cast<double>(merged.rank()));
    rk_ = std::move(merged);
  }

  /// Generic accumulation this += alpha * (rk over the whole block). For a
  /// node the update restricted to each leaf is independent of the others
  /// (disjoint row/column ranges of the factors, disjoint targets), so the
  /// per-leaf recompressions run in parallel.
  void add_rk(T alpha, const la::RkFactors<T>& rk) {
    if (rk.rank() == 0) return;
    switch (kind_) {
      case Kind::kNode: {
        std::vector<HMatrix*> leaves;
        collect_leaves(leaves);
        const index_t r0 = row_->begin, c0 = col_->begin;
        parallel_for_capture(leaves.size(), [&](std::size_t l) {
          HMatrix* h = leaves[l];
          MemoryScope scope(MemTag::kHmatRk);
          la::RkFactors<T> sub;
          sub.U = la::Matrix<T>(h->rows(), rk.rank());
          sub.V = la::Matrix<T>(h->cols(), rk.rank());
          sub.U.view().copy_from(rk.U.view().block(h->row_->begin - r0, 0,
                                                   h->rows(), rk.rank()));
          sub.V.view().copy_from(rk.V.view().block(h->col_->begin - c0, 0,
                                                   h->cols(), rk.rank()));
          h->add_rk(alpha, sub);
        });
        break;
      }
      case Kind::kFull:
        la::gemm(alpha, rk.U.view(), la::Op::kNoTrans, rk.V.view(),
                 la::Op::kTrans, T{1}, full_.view());
        break;
      case Kind::kRk: {
        MemoryScope scope(MemTag::kHmatRk);
        la::Matrix<T> Ua(rows(), rk.rank());
        for (index_t c = 0; c < rk.rank(); ++c)
          for (index_t i = 0; i < rows(); ++i) Ua(i, c) = alpha * rk.U(i, c);
        add_rk_factors(Ua.view(), rk.V.view());
        break;
      }
    }
  }

  void to_dense_rec(la::MatrixView<T> out, index_t row_origin,
                    index_t col_origin) const {
    switch (kind_) {
      case Kind::kNode:
        for (const auto& c : child_) c->to_dense_rec(out, row_origin, col_origin);
        break;
      case Kind::kFull:
        out.block(row_->begin - row_origin, col_->begin - col_origin, rows(),
                  cols())
            .copy_from(full_.view());
        break;
      case Kind::kRk:
        la::gemm(T{1}, rk_.U.view(), la::Op::kNoTrans, rk_.V.view(),
                 la::Op::kTrans, T{0},
                 out.block(row_->begin - row_origin,
                           col_->begin - col_origin, rows(), cols()));
        break;
    }
  }

  // -- H-LU and H-LDL^T -----------------------------------------------------

  /// Runs `f(depth)` with an OpenMP task pool underneath: a parallel region
  /// whose single initial task is the recursion, with the remaining threads
  /// executing the tasks it spawns. Inside an existing parallel region (or
  /// with one thread) the recursion runs serially with depth 0.
  template <class F>
  static void run_factor_entry(F&& f) {
    if (omp_in_parallel() || omp_get_max_threads() <= 1) {
      f(0);
      return;
    }
    const int depth = task_depth();
    std::exception_ptr error = nullptr;
#pragma omp parallel default(shared)
    {
#pragma omp single
      {
        try {
          f(depth);
        } catch (...) {
          error = std::current_exception();
        }
      }
    }
    if (error) std::rethrow_exception(error);
  }

  void lu_rec(int depth = 0) {
    switch (kind_) {
      case Kind::kFull:
        if (failpoint("hlu.pivot")) throw la::SingularMatrix(row_->begin);
        la::lu_factor(full_.view(), piv_);
        break;
      case Kind::kRk:
        throw std::logic_error("diagonal H block cannot be low-rank");
      case Kind::kNode: {
        child(0, 0).lu_rec(depth);
        // The two off-diagonal panel solves touch disjoint blocks.
        run_task_group(
            depth,
            {[&] { solve_lower_h(child(0, 0), child(0, 1), depth - 1); },
             [&] {
               solve_right_h(child(0, 0), false, child(1, 0), depth - 1);
             }});
        gemm(T{-1}, child(1, 0), nullptr, child(0, 1), la::Op::kNoTrans,
             child(1, 1), depth);
        child(1, 1).lu_rec(depth);
        break;
      }
    }
  }

  void ldlt_rec(int depth = 0) {
    switch (kind_) {
      case Kind::kFull:
        if (failpoint("hldlt.pivot")) throw la::SingularMatrix(row_->begin);
        la::ldlt_factor(full_.view());
        break;
      case Kind::kRk:
        throw std::logic_error("diagonal H block cannot be low-rank");
      case Kind::kNode: {
        child(0, 0).ldlt_rec(depth);
        // A10 := A10 L00^{-T} D00^{-1}.
        solve_right_h(child(0, 0), true, child(1, 0), depth);
        // A11 -= A10 D00 A10^T. (The update also refreshes A11's upper
        // blocks; only diagonal/lower are read afterwards.)
        std::vector<T> d(static_cast<std::size_t>(child(0, 0).rows()));
        gather_diag(child(0, 0), d.data());
        gemm(T{-1}, child(1, 0), d.data(), child(1, 0), la::Op::kTrans,
             child(1, 1), depth);
        child(1, 1).ldlt_rec(depth);
        break;
      }
    }
  }

  /// Collect the diagonal of a factored (LDLT) diagonal block.
  static void gather_diag(const HMatrix& A, T* out) {
    if (A.kind_ == Kind::kFull) {
      for (index_t k = 0; k < A.rows(); ++k) out[k] = A.full_(k, k);
      return;
    }
    assert(A.kind_ == Kind::kNode);
    gather_diag(A.child(0, 0), out);
    gather_diag(A.child(1, 1), out + A.child(0, 0).rows());
  }

  /// M(k, :) /= D_A(k); the diagonal lives in the factored dense diagonal
  /// leaves of A.
  static void scale_by_diag_inv(const HMatrix& A, la::MatrixView<T> M) {
    if (A.kind_ == Kind::kFull) {
      for (index_t k = 0; k < A.rows(); ++k) {
        const T s = T{1} / A.full_(k, k);
        for (index_t j = 0; j < M.cols(); ++j) M(k, j) *= s;
      }
      return;
    }
    assert(A.kind_ == Kind::kNode);
    const index_t n0 = A.child(0, 0).rows();
    scale_by_diag_inv(A.child(0, 0), M.block(0, 0, n0, M.cols()));
    scale_by_diag_inv(A.child(1, 1), M.block(n0, 0, M.rows() - n0, M.cols()));
  }

  /// M := op(L_A)^{-1} M (unit lower) or M := op(U_A)^{-1} M (non-unit
  /// upper) for dense M spanning A's rows. The lower no-transpose solve
  /// applies P_A first; H-LDL^T leaves carry no pivots, so it serves both
  /// factorizations.
  static void trsm_dense(const HMatrix& A, la::Uplo uplo, la::Op op,
                         la::MatrixView<T> M) {
    const bool lower = uplo == la::Uplo::kLower;
    if (A.kind_ == Kind::kFull) {
      if (lower && op == la::Op::kNoTrans) la::lu_apply_pivots(A.piv_, M);
      la::trsm(la::Side::kLeft, uplo, op,
               lower ? la::Diag::kUnit : la::Diag::kNonUnit, A.full_.view(),
               M);
      return;
    }
    assert(A.kind_ == Kind::kNode);
    const index_t n0 = A.child(0, 0).rows();
    auto M0 = M.block(0, 0, n0, M.cols());
    auto M1 = M.block(n0, 0, M.rows() - n0, M.cols());
    // op(A) lower (L, U^T) solves top-down, op(A) upper (U, L^T) bottom-up;
    // the coupling block is A10 for L and A01 for U.
    const int first = lower == (op == la::Op::kNoTrans) ? 0 : 1;
    const auto Mf = first == 0 ? M0 : M1;
    const auto Ms = first == 0 ? M1 : M0;
    trsm_dense(A.child(first, first), uplo, op, Mf);
    (lower ? A.child(1, 0) : A.child(0, 1))
        .mult_add(T{-1}, la::ConstMatrixView<T>(Mf), Ms, op);
    trsm_dense(A.child(1 - first, 1 - first), uplo, op, Ms);
  }

  /// B := L_A^{-1} B (H-operand forward solve). The two column panels of a
  /// node B are independent throughout; each of the three stages (top
  /// solves, Schur updates, bottom solves) runs its pair as tasks.
  static void solve_lower_h(const HMatrix& A, HMatrix& B, int depth = 0) {
    switch (B.kind_) {
      case Kind::kRk:
        if (B.rk_.rank() > 0)
          trsm_dense(A, la::Uplo::kLower, la::Op::kNoTrans, B.rk_.U.view());
        return;
      case Kind::kFull:
        trsm_dense(A, la::Uplo::kLower, la::Op::kNoTrans, B.full_.view());
        return;
      case Kind::kNode: {
        assert(A.kind_ == Kind::kNode);
        run_task_group(
            depth,
            {[&] { solve_lower_h(A.child(0, 0), B.child(0, 0), depth - 1); },
             [&] {
               solve_lower_h(A.child(0, 0), B.child(0, 1), depth - 1);
             }});
        run_task_group(depth,
                       {[&] {
                          gemm(T{-1}, A.child(1, 0), nullptr, B.child(0, 0),
                               la::Op::kNoTrans, B.child(1, 0), depth - 1);
                        },
                        [&] {
                          gemm(T{-1}, A.child(1, 0), nullptr, B.child(0, 1),
                               la::Op::kNoTrans, B.child(1, 1), depth - 1);
                        }});
        run_task_group(
            depth,
            {[&] { solve_lower_h(A.child(1, 1), B.child(1, 0), depth - 1); },
             [&] {
               solve_lower_h(A.child(1, 1), B.child(1, 1), depth - 1);
             }});
        return;
      }
    }
  }

  /// The right panel transform of an H operand: B := B U_A^{-1} after
  /// H-LU, B := B L_A^{-T} D_A^{-1} after H-LDL^T (which reads only A's
  /// lower blocks). The two row panels of a node B are the independent
  /// units.
  static void solve_right_h(const HMatrix& A, bool ldlt, HMatrix& B,
                            int depth = 0) {
    // Both act on B^T from the left: U_A^{-T} B^T or D_A^{-1} L_A^{-1} B^T.
    const auto solve_transposed = [&](la::MatrixView<T> M) {
      if (ldlt) {
        trsm_dense(A, la::Uplo::kLower, la::Op::kNoTrans, M);
        scale_by_diag_inv(A, M);
      } else {
        trsm_dense(A, la::Uplo::kUpper, la::Op::kTrans, M);
      }
    };
    switch (B.kind_) {
      case Kind::kRk:
        // (U V^T) X = U (X^T V)^T.
        if (B.rk_.rank() > 0) solve_transposed(B.rk_.V.view());
        return;
      case Kind::kFull: {
        la::Matrix<T> Bt = transposed(B.full_);
        solve_transposed(Bt.view());
        la::transpose_into(la::ConstMatrixView<T>(Bt.view()), B.full_.view());
        return;
      }
      case Kind::kNode: {
        assert(A.kind_ == Kind::kNode);
        run_task_group(
            depth,
            {[&] {
               solve_right_h(A.child(0, 0), ldlt, B.child(0, 0), depth - 1);
             },
             [&] {
               solve_right_h(A.child(0, 0), ldlt, B.child(1, 0), depth - 1);
             }});
        // B*1 -= B*0 U01 (H-LU) or B*0 D00 L10^T (H-LDL^T).
        std::vector<T> d;
        if (ldlt) {
          d.resize(static_cast<std::size_t>(A.child(0, 0).rows()));
          gather_diag(A.child(0, 0), d.data());
        }
        const T* dp = ldlt ? d.data() : nullptr;
        const HMatrix& A_off = ldlt ? A.child(1, 0) : A.child(0, 1);
        const la::Op op = ldlt ? la::Op::kTrans : la::Op::kNoTrans;
        run_task_group(depth,
                       {[&] {
                          gemm(T{-1}, B.child(0, 0), dp, A_off, op,
                               B.child(0, 1), depth - 1);
                        },
                        [&] {
                          gemm(T{-1}, B.child(1, 0), dp, A_off, op,
                               B.child(1, 1), depth - 1);
                        }});
        run_task_group(
            depth,
            {[&] {
               solve_right_h(A.child(1, 1), ldlt, B.child(0, 1), depth - 1);
             },
             [&] {
               solve_right_h(A.child(1, 1), ldlt, B.child(1, 1), depth - 1);
             }});
        return;
      }
    }
  }

  /// C += alpha * A diag(d) op(B) with truncation at C's eps. `d` spans the
  /// shared cluster (A's columns, op(B)'s rows); H-LU updates pass
  /// (nullptr, kNoTrans), H-LDL^T updates the gathered diagonal and kTrans.
  /// Node x node x node fans out over the four disjoint target quadrants;
  /// within a quadrant the two l-contributions accumulate in the serial
  /// order, keeping the recompression sequence (and hence the result)
  /// identical to a serial run.
  static void gemm(T alpha, const HMatrix& A, const T* d, const HMatrix& B,
                   la::Op op, HMatrix& C, int depth = 0) {
    if (A.kind_ == Kind::kNode && B.kind_ == Kind::kNode &&
        C.kind_ == Kind::kNode) {
      std::vector<std::function<void()>> quads;
      for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j)
          quads.push_back([&, i, j] {
            for (int l = 0; l < 2; ++l)
              gemm(alpha, A.child(i, l), diag_part(d, A, l),
                   op_child(B, op, l, j), op, C.child(i, j), depth - 1);
          });
      run_task_group(depth, std::move(quads));
      return;
    }
    // Leaf-involving product: compute as rank-k and accumulate.
    la::RkFactors<T> rk = multiply_to_rk(A, d, B, op);
    C.add_rk(alpha, rk);
  }

  /// Block (l, j) of op(B), and the column count of op(B).
  static const HMatrix& op_child(const HMatrix& B, la::Op op, int l, int j) {
    return op == la::Op::kNoTrans ? B.child(l, j) : B.child(j, l);
  }
  static index_t op_cols(const HMatrix& B, la::Op op) {
    return op == la::Op::kNoTrans ? B.cols() : B.rows();
  }
  /// The part of d over A's column block l (a null d stays null).
  static const T* diag_part(const T* d, const HMatrix& A, int l) {
    return d && l == 1 ? d + A.child(0, 0).cols() : d;
  }

  static la::Matrix<T> transposed(const la::Matrix<T>& M) {
    la::Matrix<T> t(M.cols(), M.rows());
    la::transpose_into(la::ConstMatrixView<T>(M.view()), t.view());
    return t;
  }

  /// diag(d) op(M) for a dense M (d may be null): a view of M itself when
  /// that is the answer, else a transposed and/or scaled copy held in buf.
  static la::ConstMatrixView<T> scaled(const T* d, const la::Matrix<T>& M,
                                       la::Op op, la::Matrix<T>& buf) {
    if (op == la::Op::kNoTrans) {
      if (!d) return M.view();
      buf = M;
    } else {
      buf = transposed(M);
    }
    if (d)
      for (index_t c = 0; c < buf.cols(); ++c)
        for (index_t i = 0; i < buf.rows(); ++i) buf(i, c) *= d[i];
    return buf.view();
  }

  /// A diag(d) op(B) as rank-k factors (truncated at A's eps).
  static la::RkFactors<T> multiply_to_rk(const HMatrix& A, const T* d,
                                         const HMatrix& B, la::Op op) {
    const real_of_t<T> eps = real_of_t<T>(A.opt_.eps);
    const la::Op flip =
        op == la::Op::kNoTrans ? la::Op::kTrans : la::Op::kNoTrans;
    la::Matrix<T> buf;
    la::RkFactors<T> out;
    if (A.kind_ == Kind::kRk) {
      // (U V^T) D op(B) = U (op(B)^T (D V))^T.
      out.U = A.rk_.U;
      out.V = la::Matrix<T>(op_cols(B, op), A.rk_.rank());
      if (A.rk_.rank() > 0)
        B.mult_add(T{1}, scaled(d, A.rk_.V, la::Op::kNoTrans, buf),
                   out.V.view(), flip);
      return out;
    }
    if (B.kind_ == Kind::kRk) {
      // A D op(U V^T) = (A D L) R^T, with (L, R) = (U, V), or (V, U) when
      // op transposes.
      const bool no_trans = op == la::Op::kNoTrans;
      out.U = la::Matrix<T>(A.rows(), B.rk_.rank());
      if (B.rk_.rank() > 0)
        A.mult_add(T{1},
                   scaled(d, no_trans ? B.rk_.U : B.rk_.V, la::Op::kNoTrans,
                          buf),
                   out.U.view(), la::Op::kNoTrans);
      out.V = no_trans ? B.rk_.V : B.rk_.U;
      return out;
    }
    if (A.kind_ == Kind::kFull && B.kind_ == Kind::kFull) {
      // Rank bounded by the small shared dimension: factors (A D, op(B)^T).
      out.U = A.full_;
      if (d)
        for (index_t c = 0; c < out.U.cols(); ++c)
          for (index_t i = 0; i < out.U.rows(); ++i) out.U(i, c) *= d[c];
      out.V = op == la::Op::kTrans ? B.full_ : transposed(B.full_);
      la::truncate_rk(out, eps);
      return out;
    }
    if (A.kind_ == Kind::kNode && B.kind_ == Kind::kNode) {
      // Quadrant products, merged and truncated.
      std::array<la::RkFactors<T>, 4> quads;
      index_t total_rank = 0;
      for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j) {
          auto r0 = multiply_to_rk(A.child(i, 0), diag_part(d, A, 0),
                                   op_child(B, op, 0, j), op);
          auto r1 = multiply_to_rk(A.child(i, 1), diag_part(d, A, 1),
                                   op_child(B, op, 1, j), op);
          // Merge the two contributions of this quadrant.
          la::RkFactors<T> q;
          const index_t m = A.child(i, 0).rows();
          const index_t n = op_cols(op_child(B, op, 0, j), op);
          q.U = la::Matrix<T>(m, r0.rank() + r1.rank());
          q.V = la::Matrix<T>(n, r0.rank() + r1.rank());
          if (r0.rank() > 0) {
            q.U.block(0, 0, m, r0.rank()).copy_from(r0.U.view());
            q.V.block(0, 0, n, r0.rank()).copy_from(r0.V.view());
          }
          if (r1.rank() > 0) {
            q.U.block(0, r0.rank(), m, r1.rank()).copy_from(r1.U.view());
            q.V.block(0, r0.rank(), n, r1.rank()).copy_from(r1.V.view());
          }
          la::truncate_rk(q, eps);
          total_rank += q.rank();
          quads[static_cast<std::size_t>(2 * i + j)] = std::move(q);
        }
      // Assemble the 2x2 quadrants into one factorization.
      const index_t m0 = A.child(0, 0).rows(), m1 = A.child(1, 0).rows();
      const index_t n0 = op_cols(op_child(B, op, 0, 0), op);
      const index_t n1 = op_cols(op_child(B, op, 0, 1), op);
      out.U = la::Matrix<T>(m0 + m1, total_rank);
      out.V = la::Matrix<T>(n0 + n1, total_rank);
      index_t at = 0;
      for (int i = 0; i < 2; ++i)
        for (int j = 0; j < 2; ++j) {
          const auto& q = quads[static_cast<std::size_t>(2 * i + j)];
          if (q.rank() == 0) continue;
          const index_t rb = (i == 0) ? 0 : m0;
          const index_t cb = (j == 0) ? 0 : n0;
          out.U.block(rb, at, q.U.rows(), q.rank()).copy_from(q.U.view());
          out.V.block(cb, at, q.V.rows(), q.rank()).copy_from(q.V.view());
          at += q.rank();
        }
      la::truncate_rk(out, eps);
      return out;
    }
    // Mixed Full x Node: A dense with few rows (its row cluster is a leaf,
    // its column cluster is not). Rank is bounded by A's row count:
    // factors (I, op(B)^T (D A^T)).
    if (A.kind_ == Kind::kFull && B.kind_ == Kind::kNode) {
      const index_t m = A.rows();
      out.V = la::Matrix<T>(op_cols(B, op), m);
      B.mult_add(T{1}, scaled(d, A.full_, la::Op::kTrans, buf), out.V.view(),
                 flip);
      out.U = la::Matrix<T>::identity(m);
      la::truncate_rk(out, eps);
      return out;
    }
    // Mixed Node x Full: op(B) dense with few columns; factors
    // (A D op(B), I).
    if (A.kind_ == Kind::kNode && B.kind_ == Kind::kFull) {
      const index_t n = op_cols(B, op);
      out.U = la::Matrix<T>(A.rows(), n);
      A.mult_add(T{1}, scaled(d, B.full_, op, buf), out.U.view(),
                 la::Op::kNoTrans);
      out.V = la::Matrix<T>::identity(n);
      la::truncate_rk(out, eps);
      return out;
    }
    throw std::logic_error("inconsistent H-matrix block structures in gemm");
  }

  const ClusterNode* row_ = nullptr;
  const ClusterNode* col_ = nullptr;
  HOptions opt_;
  Kind kind_ = Kind::kFull;
  std::array<std::unique_ptr<HMatrix>, 4> child_;
  la::Matrix<T> full_;
  la::RkFactors<T> rk_;
  std::vector<index_t> piv_;
  bool factored_ = false;
  bool ldlt_ = false;
};

/// Generator adapter around a stored dense matrix (original coordinates).
template <class T>
class DenseGenerator final : public MatrixGenerator<T> {
 public:
  explicit DenseGenerator(la::ConstMatrixView<T> m) : m_(m) {}
  index_t rows() const override { return m_.rows(); }
  index_t cols() const override { return m_.cols(); }
  T entry(index_t i, index_t j) const override { return m_(i, j); }

 private:
  la::ConstMatrixView<T> m_;
};

}  // namespace cs::hmat
