// Factor-once / solve-many throughput driver: runs one factorization per
// invocation (factorize_coupled), then sweeps batched multi-RHS solves
// over nrhs in {1, 4, 16, 64, 256} (or a single --nrhs point) against the
// persistent FactoredCoupled handle. Reports solves/sec of the solution
// phase alone and the amortized cost per RHS including the factorization,
// the quantity the paper's "solution phase is cheap once factored"
// argument rests on. --report writes a RunReport (a factorize run, one run
// per nrhs point, a checkpoint run) that CI uses to assert that factorize
// + 64 batched RHS stays well under 2x the cost of factorize + 1 RHS.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "coupled/planner.h"
#include "coupled/report.h"
#include "la/matrix.h"

using namespace cs;
using coupled::Config;
using coupled::Strategy;

namespace {

// RHS block whose column j is (j+1) x the system's built-in RHS; column j
// of the exact solution is then (j+1) x the manufactured reference, which
// validates every column of the batch against the known answer.
la::Matrix<double> scaled_rhs(const la::Vector<double>& b, index_t nrhs) {
  la::Matrix<double> B(b.size(), nrhs);
  for (index_t j = 0; j < nrhs; ++j)
    for (index_t i = 0; i < b.size(); ++i)
      B(i, j) = double(j + 1) * b[i];
  return B;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.describe("n", "total unknowns (default 6000)");
  args.describe("strategy",
                "coupling strategy name (default multi-solve-compressed)");
  args.describe("nrhs",
                "single batch width to run (0 = sweep 1,4,16,64,256)");
  args.describe("refine", "iterative refinement sweeps per solve");
  bench::describe_precision(args);
  args.describe("checkpoint",
                "save the factored handle to this path, reload it, and time "
                "both (adds a checkpoint run to --report)");
  args.describe("report",
                "write the factorization + sweep run report here "
                "(solves/sec, amortized cost per RHS)");
  bench::describe_threads(args);
  args.check(
      "Factor-once / solve-many throughput: one factorization, a sweep of "
      "batched multi-RHS solution phases against the persistent handle.");

  const index_t n = static_cast<index_t>(args.get_int("n", 6000));
  const index_t one_nrhs = static_cast<index_t>(args.get_int("nrhs", 0));
  Config cfg;
  cfg.strategy = bench::strategy_by_name(
      args.get("strategy", coupled::strategy_name(
                               Strategy::kMultiSolveCompressed)));
  cfg.refine_iterations = static_cast<int>(args.get_int("refine", 0));
  bench::apply_threads(args, cfg);
  bench::apply_precision(args, cfg);

  auto sys = fembem::make_pipe_system<double>({.total_unknowns = n});
  std::printf("== factor once, solve many: N = %d (%d FEM + %d BEM), %s ==\n",
              sys.total(), sys.nv(), sys.ns(),
              coupled::strategy_name(cfg.strategy));

  Timer factor_timer;
  auto handle = coupled::factorize_coupled(sys, cfg);
  const double factor_seconds = factor_timer.seconds();
  if (!handle.ok()) {
    std::fprintf(stderr, "factorization failed: %s\n",
                 handle.stats().failure.c_str());
    return 1;
  }
  std::printf("factorize: %.2f s (%d attempt%s, peak %s MiB)\n",
              factor_seconds, handle.stats().attempts,
              handle.stats().attempts == 1 ? "" : "s",
              bench::mib(handle.stats().peak_bytes).c_str());
  const std::string strategy = coupled::strategy_name(cfg.strategy);
  coupled::RunReport report("bench_solve");
  report.add("factorize", strategy, cfg, handle.stats());

  // Optional durability leg: serialize the handle, reload it from disk,
  // and report how much cheaper the load is than refactorizing. This is
  // the number the "factor once, restart later" workflow rests on.
  const std::string ckpt_path = args.get("checkpoint", "");
  int failures = 0;
  if (!ckpt_path.empty()) {
    double ckpt_load_seconds = 0;
    bool ckpt_ok = false;
    std::string ckpt_failure;
    Timer save_timer;
    SolveError save_error;
    const std::size_t ckpt_bytes = handle.save(ckpt_path, &save_error);
    const double ckpt_save_seconds = save_timer.seconds();
    if (ckpt_bytes == 0) {
      ckpt_failure = "save failed at " + save_error.site + ": " +
                     save_error.detail;
      std::fprintf(stderr, "checkpoint %s\n", ckpt_failure.c_str());
    } else {
      Config load_cfg;
      bench::apply_threads(args, load_cfg);
      Timer load_timer;
      auto restored = coupled::load_factored<double>(ckpt_path, sys, load_cfg);
      ckpt_load_seconds = load_timer.seconds();
      ckpt_ok = restored.ok() &&
                restored.stats().checkpoint_source == "checkpoint";
      if (!ckpt_ok) {
        ckpt_failure = "load failed: " + restored.stats().failure;
        std::fprintf(stderr, "checkpoint %s\n", ckpt_failure.c_str());
      } else {
        // The restored handle must still produce the manufactured answer.
        la::Matrix<double> Bv = scaled_rhs(sys.b_v, 1);
        la::Matrix<double> Bs = scaled_rhs(sys.b_s, 1);
        restored.solve(Bv.view(), Bs.view());
        la::Vector<double> xv(sys.nv()), xs(sys.ns());
        for (index_t i = 0; i < sys.nv(); ++i) xv[i] = Bv(i, 0);
        for (index_t i = 0; i < sys.ns(); ++i) xs[i] = Bs(i, 0);
        const double err = sys.relative_error(xv, xs);
        if (!(err < 1e-2)) {
          ckpt_failure = "restored solve inaccurate: " + bench::sci(err);
          std::fprintf(stderr, "checkpoint %s\n", ckpt_failure.c_str());
          ckpt_ok = false;
        }
      }
      const double speedup = ckpt_load_seconds > 0
                                 ? factor_seconds / ckpt_load_seconds
                                 : 0.0;
      std::printf("checkpoint: %s MiB, save %.3f s, load %.3f s "
                  "(load %.1fx faster than factorize)%s\n",
                  bench::mib(ckpt_bytes).c_str(), ckpt_save_seconds,
                  ckpt_load_seconds, speedup, ckpt_ok ? "" : "  FAILED");
    }
    if (!ckpt_ok) ++failures;
    report.add("checkpoint", strategy, &cfg, ckpt_ok,
               {{"bytes", static_cast<double>(ckpt_bytes)},
                {"save_seconds", ckpt_save_seconds},
                {"load_seconds", ckpt_load_seconds},
                {"factorize_seconds", factor_seconds}},
               ckpt_failure);
  }

  std::vector<index_t> widths;
  if (one_nrhs > 0)
    widths.push_back(one_nrhs);
  else
    widths = {1, 4, 16, 64, 256};

  // Size the sweep against the budget headroom the factorization left: a
  // batch whose transients would blow the budget is skipped, not crashed.
  const std::size_t budget = cfg.memory_budget;
  TablePrinter table(
      {"nrhs", "solve s", "solves/s", "amortized s/rhs", "max col err",
       "status"});

  for (index_t nrhs : widths) {
    const std::string label = "nrhs=" + std::to_string(nrhs);
    const std::size_t batch_bytes = coupled::solve_batch_bytes(
        sys.nv(), sys.ns(), nrhs, sizeof(double), cfg.refine_iterations > 0);
    if (budget > 0 &&
        MemoryTracker::instance().current() + batch_bytes > budget) {
      std::printf("[solve] nrhs=%d skipped: batch transients (%s MiB) "
                  "exceed the budget headroom\n",
                  nrhs, bench::mib(batch_bytes).c_str());
      table.add_row({TablePrinter::fmt_int(nrhs), "-", "-", "-", "-",
                     "skipped (budget)"});
      report.add(label, strategy, &cfg, false, {},
                 "skipped: batch transients exceed the budget headroom");
      continue;
    }

    la::Matrix<double> Bv = scaled_rhs(sys.b_v, nrhs);
    la::Matrix<double> Bs = scaled_rhs(sys.b_s, nrhs);
    // The handle's solve leaves process state alone, so the driver measures
    // this solve's peak (resident factors included) itself.
    MemoryTracker::instance().reset_peak();
    Timer solve_timer;
    auto stats = handle.solve(Bv.view(), Bs.view());
    const double solve_seconds = solve_timer.seconds();
    stats.peak_bytes = MemoryTracker::instance().peak();
    if (!stats.success) {
      std::printf("[solve] nrhs=%d FAILED: %s\n", nrhs,
                  stats.failure.c_str());
      table.add_row({TablePrinter::fmt_int(nrhs), "-", "-", "-", "-",
                     "FAILED"});
      ++failures;
      report.add(label, strategy, cfg, stats);
      continue;
    }
    const double solves_per_sec =
        solve_seconds > 0 ? nrhs / solve_seconds : 0.0;
    const double total_with_factor = factor_seconds + solve_seconds;

    // Every column must recover its scaled manufactured solution.
    double max_column_error = 0;
    la::Vector<double> xv(sys.nv()), xs(sys.ns());
    for (index_t j = 0; j < nrhs; ++j) {
      for (index_t i = 0; i < sys.nv(); ++i) xv[i] = Bv(i, j) / (j + 1);
      for (index_t i = 0; i < sys.ns(); ++i) xs[i] = Bs(i, j) / (j + 1);
      max_column_error =
          std::max(max_column_error, sys.relative_error(xv, xs));
    }
    stats.relative_error = max_column_error;
    if (!(max_column_error < 1e-2)) {
      ++failures;
      stats.success = false;
      stats.failure = "max column error " + bench::sci(max_column_error);
    }
    table.add_row({TablePrinter::fmt_int(nrhs),
                   TablePrinter::fmt(solve_seconds, 3),
                   TablePrinter::fmt(solves_per_sec, 1),
                   TablePrinter::fmt(total_with_factor / nrhs, 3),
                   bench::sci(max_column_error),
                   stats.success ? "ok" : "FAILED (accuracy)"});
    report.add(label, strategy, cfg, stats,
               {{"total_with_factor", total_with_factor},
                {"solves_per_sec", solves_per_sec},
                {"max_column_error", max_column_error}});
  }
  table.print();
  std::printf("(amortized s/rhs = (factorization + batched solve) / nrhs; "
              "the factorization is paid once per handle)\n");

  const std::string report_path = args.get("report", "");
  if (!report_path.empty()) {
    if (!report.write(report_path)) return 1;
    std::printf("report: wrote %s\n", report_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
