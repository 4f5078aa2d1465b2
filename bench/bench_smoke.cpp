// Observability smoke test: runs one small traced solve per strategy,
// self-validates the exported Chrome trace (schema, thread tracks,
// stage spans, memory timeline) and the run report, and exits
// non-zero on any problem. CI runs this binary and archives the --trace /
// --report artifacts; it doubles as a quick end-to-end check that the
// tracing layer stays wired through every solve path.
#include <cstdio>
#include <set>
#include <string>

#include "bench_common.h"
#include "common/json.h"
#include "common/random.h"
#include "la/blas.h"

using namespace cs;
using coupled::Config;
using coupled::Strategy;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) {
    std::printf("  ok: %s\n", what.c_str());
  } else {
    std::printf("  FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.describe("n", "total unknowns per solve (default 3500)");
  args.describe("nrhs",
                "batch width of the factor-once/solve-many smoke "
                "(default 4)");
  bench::describe_threads(args);
  bench::Observability::describe(args);
  args.check(
      "Observability smoke test: one traced solve per strategy, "
      "self-validating the trace and report.");
  bench::Observability obs(args, "bench_smoke");
  const index_t n = static_cast<index_t>(args.get_int("n", 3500));
  const index_t nrhs = static_cast<index_t>(args.get_int("nrhs", 4));
  const int threads = static_cast<int>(args.get_int("threads", 4));

  // Tracing is the subject under test: always on here, regardless of
  // --trace (which only decides whether the file is also written).
  auto& tracer = Tracer::instance();
  const bool already_tracing = tracer.enabled();
  if (!already_tracing) tracer.set_enabled(true);

  // -- packed kernel engine sanity ------------------------------------------
  // The whole solver stack now runs on the packed gemm/trsm engine; verify
  // on this host that its results agree with the naive definition before
  // trusting any end-to-end numbers below.
  {
    const index_t kn = 96;
    Rng rng(12345);
    la::Matrix<complexd> A(kn, kn), B(kn, kn), C(kn, kn), R(kn, kn);
    for (index_t j = 0; j < kn; ++j)
      for (index_t i = 0; i < kn; ++i) {
        A(i, j) = rng.scalar<complexd>();
        B(i, j) = rng.scalar<complexd>();
      }
    la::gemm(complexd{1}, A.cview(), la::Op::kNoTrans, B.cview(),
             la::Op::kTrans, complexd{0}, C.view());
    for (index_t j = 0; j < kn; ++j)
      for (index_t i = 0; i < kn; ++i) {
        complexd acc{};
        for (index_t p = 0; p < kn; ++p) acc += A(i, p) * B(j, p);
        R(i, j) = acc;
      }
    const double gemm_err = la::rel_diff(C.cview(), R.cview());
    expect(gemm_err < 1e-13,
           "packed gemm matches naive reference (rel err " +
               bench::sci(gemm_err) + ")");
    // Round-trip triangular solve: X = L \ (L * R) must recover R.
    la::Matrix<complexd> L(kn, kn);
    for (index_t j = 0; j < kn; ++j) {
      for (index_t i = j; i < kn; ++i) L(i, j) = rng.scalar<complexd>();
      L(j, j) += complexd{4};
    }
    la::gemm(complexd{1}, L.cview(), la::Op::kNoTrans, R.cview(),
             la::Op::kNoTrans, complexd{0}, C.view());
    la::trsm(la::Side::kLeft, la::Uplo::kLower, la::Op::kNoTrans,
             la::Diag::kNonUnit, L.cview(), C.view());
    const double trsm_err = la::rel_diff(C.cview(), R.cview());
    expect(trsm_err < 1e-12, "blocked trsm round-trips (rel err " +
                                 bench::sci(trsm_err) + ")");
  }

  auto sys = fembem::make_pipe_system<double>({.total_unknowns = n});
  std::printf("== observability smoke: N = %d (%d FEM + %d BEM), "
              "%d threads ==\n",
              sys.total(), sys.nv(), sys.ns(), threads);

  for (Strategy s : coupled::kAllStrategies) {
    Config cfg;
    cfg.strategy = s;
    cfg.num_threads = threads;
    // Small panels/blocks so even this toy size folds several Schur panels
    // and runs the multi-factorization job graph with real parallelism.
    cfg.n_c = 32;
    cfg.n_S = 64;
    cfg.n_b = 2;
    std::printf("[smoke] %s...\n", coupled::strategy_name(s));
    std::fflush(stdout);
    auto stats = coupled::solve_coupled(sys, cfg);
    obs.add(coupled::strategy_name(s), "smoke", cfg, stats);
    expect(stats.success,
           std::string(coupled::strategy_name(s)) + " solve succeeded");
    expect(stats.relative_error < 1e-1,
           std::string(coupled::strategy_name(s)) + " rel err " +
               bench::sci(stats.relative_error) + " < 1e-1");
    // Attribution ledger: the peak snapshot must decompose the global
    // high-water mark. pack.scratch is budget-exempt per-tag-only
    // accounting and excluded from the sum; concurrent allocators make the
    // snapshot approximate, hence the slack.
    std::size_t tag_sum = 0;
    for (const auto& [tag, bytes] : stats.peak_by_tag)
      if (tag != "pack.scratch") tag_sum += bytes;
    const double lo = 0.75 * static_cast<double>(stats.peak_bytes);
    const double hi = 1.25 * static_cast<double>(stats.peak_bytes) + 1e6;
    expect(static_cast<double>(tag_sum) >= lo &&
               static_cast<double>(tag_sum) <= hi,
           std::string(coupled::strategy_name(s)) + " peak_by_tag sum " +
               format_bytes(tag_sum) + " ~ peak " +
               format_bytes(stats.peak_bytes));
    expect(stats.planner_predicted_bytes > 0,
           std::string(coupled::strategy_name(s)) +
               " planner audit recorded (predicted " +
               format_bytes(stats.planner_predicted_bytes) + ", x" +
               bench::sci(stats.planner_misprediction) + " of measured)");
  }

  // -- factor once, solve a batch -------------------------------------------
  // The persistent-handle path must stay wired through tracing too: one
  // factorization, one batched multi-RHS solution phase.
  {
    Config cfg;
    cfg.strategy = Strategy::kMultiSolveCompressed;
    cfg.num_threads = threads;
    cfg.n_c = 32;
    cfg.n_S = 64;
    std::printf("[smoke] factorize + %d-RHS batch...\n", nrhs);
    std::fflush(stdout);
    auto handle = coupled::factorize_coupled(sys, cfg);
    expect(handle.ok(), "factorize_coupled succeeded");
    if (handle.ok()) {
      la::Matrix<double> Bv(sys.nv(), nrhs), Bs(sys.ns(), nrhs);
      for (index_t j = 0; j < nrhs; ++j) {
        for (index_t i = 0; i < sys.nv(); ++i)
          Bv(i, j) = double(j + 1) * sys.b_v[i];
        for (index_t i = 0; i < sys.ns(); ++i)
          Bs(i, j) = double(j + 1) * sys.b_s[i];
      }
      auto stats = handle.solve(Bv.view(), Bs.view());
      obs.add("factored-batch", "nrhs=" + std::to_string(nrhs), cfg, stats);
      expect(stats.success, "batched solve succeeded");
      expect(stats.nrhs == nrhs, "batched solve reports nrhs=" +
                                     std::to_string(nrhs));
      la::Vector<double> xv(sys.nv()), xs(sys.ns());
      for (index_t i = 0; i < sys.nv(); ++i) xv[i] = Bv(i, 0);
      for (index_t i = 0; i < sys.ns(); ++i) xs[i] = Bs(i, 0);
      const double err = sys.relative_error(xv, xs);
      expect(err < 1e-1,
             "batched column 0 rel err " + bench::sci(err) + " < 1e-1");
    }
  }

  // -- validate the recorded trace -----------------------------------------
  const std::string text = tracer.to_json();
  const std::string problem = validate_chrome_trace(text);
  expect(problem.empty(), "trace validates (" +
                              (problem.empty() ? std::string("clean")
                                               : problem) +
                              ")");

  json::Value doc;
  std::string err;
  expect(json::parse(text, &doc, &err), "trace parses as JSON " + err);
  const json::Value* events = doc.find("traceEvents");
  std::set<double> tids;
  std::set<std::string> names;
  if (events != nullptr && events->is_array()) {
    for (const auto& e : events->array) {
      if (const json::Value* tid = e.find("tid")) tids.insert(tid->number);
      if (const json::Value* name = e.find("name"))
        names.insert(name->string);
    }
  }
  expect(tids.size() >= 4, "trace has >= 4 thread tracks (got " +
                               std::to_string(tids.size()) + ")");
  for (const char* required :
       {"schur.panel_solve", "schur.axpy", "multifacto.factor",
        "solution.schur_solve", "mf.factor", "hmat.assemble",
        "memory.current", "memory.peak", "jobs.inflight",
        "mem.mf.front", "mem.schur.dense", "mem.rhs.workspace",
        "mem.hmat.rk"}) {
    expect(names.count(required) > 0,
           std::string("trace contains '") + required + "'");
  }
  // The system's symmetry picks the H-matrix Schur factorization.
  const char* h_factor = sys.symmetric ? "hldlt.factor" : "hlu.factor";
  expect(names.count(h_factor) > 0,
         std::string("trace contains '") + h_factor + "'");

  if (g_failures == 0)
    std::printf("\nsmoke: all checks passed (%zu events, %zu threads)\n",
                tracer.event_count(), tracer.thread_count());
  else
    std::printf("\nsmoke: %d check(s) FAILED\n", g_failures);

  // Let Observability write the --trace / --report files (the report also
  // carries the per-strategy stage timings and counters).
  obs.finish();
  if (!already_tracing) tracer.set_enabled(false);
  return g_failures == 0 ? 0 : 1;
}
