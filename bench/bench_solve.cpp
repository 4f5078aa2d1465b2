// Factor-once / solve-many throughput driver: runs one factorization per
// invocation (factorize_coupled), then sweeps batched multi-RHS solves
// over nrhs in {1, 4, 16, 64, 256} (or a single --nrhs point) against the
// persistent FactoredCoupled handle. Reports solves/sec of the solution
// phase alone and the amortized cost per RHS including the factorization,
// the quantity the paper's "solution phase is cheap once factored"
// argument rests on. --report writes a self-validated JSON file CI uses
// to assert that factorize + 64 batched RHS stays well under 2x the cost
// of factorize + 1 RHS.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "coupled/planner.h"
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

struct SweepPoint {
  index_t nrhs = 0;
  double solve_seconds = 0;
  double solves_per_sec = 0;
  double amortized_seconds_per_rhs = 0;  // (factor + solve) / nrhs
  double total_with_factor = 0;          // factor + solve
  double max_column_error = 0;
  bool ok = false;
};

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
                "both (adds a \"checkpoint\" section to --report)");
  args.describe("report",
                "write the factorization + sweep JSON here (solves/sec, "
                "amortized cost per RHS)");
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

  // Optional durability leg: serialize the handle, reload it from disk,
  // and report how much cheaper the load is than refactorizing. This is
  // the number the "factor once, restart later" workflow rests on.
  const std::string ckpt_path = args.get("checkpoint", "");
  double ckpt_save_seconds = 0, ckpt_load_seconds = 0;
  std::size_t ckpt_bytes = 0;
  bool ckpt_ok = false;
  int ckpt_failures = 0;
  if (!ckpt_path.empty()) {
    Timer save_timer;
    SolveError save_error;
    ckpt_bytes = handle.save(ckpt_path, &save_error);
    ckpt_save_seconds = save_timer.seconds();
    if (ckpt_bytes == 0) {
      std::fprintf(stderr, "checkpoint save failed at %s: %s\n",
                   save_error.site.c_str(), save_error.detail.c_str());
      ++ckpt_failures;
    } else {
      Config load_cfg;
      bench::apply_threads(args, load_cfg);
      Timer load_timer;
      auto restored = coupled::load_factored<double>(ckpt_path, sys, load_cfg);
      ckpt_load_seconds = load_timer.seconds();
      ckpt_ok = restored.ok() &&
                restored.stats().checkpoint_source == "checkpoint";
      if (!ckpt_ok) {
        std::fprintf(stderr, "checkpoint load failed: %s\n",
                     restored.stats().failure.c_str());
        ++ckpt_failures;
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
          std::fprintf(stderr,
                       "checkpoint-restored solve inaccurate: %.3e\n", err);
          ckpt_ok = false;
          ++ckpt_failures;
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
  }

  std::vector<index_t> widths;
  if (one_nrhs > 0)
    widths.push_back(one_nrhs);
  else
    widths = {1, 4, 16, 64, 256};

  // Size the sweep against the budget headroom the factorization left: a
  // batch whose transients would blow the budget is skipped, not crashed.
  const std::size_t budget = cfg.memory_budget;
  std::vector<SweepPoint> points;
  TablePrinter table(
      {"nrhs", "solve s", "solves/s", "amortized s/rhs", "max col err",
       "status"});

  int failures = 0;
  for (index_t nrhs : widths) {
    SweepPoint p;
    p.nrhs = nrhs;
    const std::size_t batch_bytes = coupled::solve_batch_bytes(
        sys.nv(), sys.ns(), nrhs, sizeof(double), cfg.refine_iterations > 0);
    if (budget > 0 &&
        MemoryTracker::instance().current() + batch_bytes > budget) {
      std::printf("[solve] nrhs=%d skipped: batch transients (%s MiB) "
                  "exceed the budget headroom\n",
                  nrhs, bench::mib(batch_bytes).c_str());
      table.add_row({TablePrinter::fmt_int(nrhs), "-", "-", "-", "-",
                     "skipped (budget)"});
      points.push_back(p);
      continue;
    }

    la::Matrix<double> Bv = scaled_rhs(sys.b_v, nrhs);
    la::Matrix<double> Bs = scaled_rhs(sys.b_s, nrhs);
    Timer solve_timer;
    auto stats = handle.solve(Bv.view(), Bs.view());
    p.solve_seconds = solve_timer.seconds();
    p.ok = stats.success;
    if (!stats.success) {
      std::printf("[solve] nrhs=%d FAILED: %s\n", nrhs,
                  stats.failure.c_str());
      table.add_row({TablePrinter::fmt_int(nrhs), "-", "-", "-", "-",
                     "FAILED"});
      ++failures;
      points.push_back(p);
      continue;
    }
    p.solves_per_sec =
        p.solve_seconds > 0 ? nrhs / p.solve_seconds : 0.0;
    p.total_with_factor = factor_seconds + p.solve_seconds;
    p.amortized_seconds_per_rhs = p.total_with_factor / nrhs;

    // Every column must recover its scaled manufactured solution.
    la::Vector<double> xv(sys.nv()), xs(sys.ns());
    for (index_t j = 0; j < nrhs; ++j) {
      for (index_t i = 0; i < sys.nv(); ++i) xv[i] = Bv(i, j) / (j + 1);
      for (index_t i = 0; i < sys.ns(); ++i) xs[i] = Bs(i, j) / (j + 1);
      p.max_column_error =
          std::max(p.max_column_error, sys.relative_error(xv, xs));
    }
    if (!(p.max_column_error < 1e-2)) {
      ++failures;
      p.ok = false;
    }
    table.add_row({TablePrinter::fmt_int(nrhs),
                   TablePrinter::fmt(p.solve_seconds, 3),
                   TablePrinter::fmt(p.solves_per_sec, 1),
                   TablePrinter::fmt(p.amortized_seconds_per_rhs, 3),
                   bench::sci(p.max_column_error),
                   p.ok ? "ok" : "FAILED (accuracy)"});
    points.push_back(p);
  }
  table.print();
  std::printf("(amortized s/rhs = (factorization + batched solve) / nrhs; "
              "the factorization is paid once per handle)\n");

  const std::string report_path = args.get("report", "");
  if (!report_path.empty()) {
    std::string out = "{\"binary\":\"bench_solve\"";
    out += ",\"strategy\":\"" +
           std::string(coupled::strategy_name(cfg.strategy)) + "\"";
    out += ",\"n_total\":" + std::to_string(sys.total());
    out += ",\"n_fem\":" + std::to_string(sys.nv());
    out += ",\"n_bem\":" + std::to_string(sys.ns());
    out += ",\"refine_iterations\":" +
           std::to_string(cfg.refine_iterations);
    out += ",\"factor_precision\":\"" +
           std::string(coupled::precision_name(cfg.factor_precision)) + "\"";
    out += ",\"factor_bytes\":" +
           std::to_string(handle.stats().factor_bytes);
    out += ",\"factorize_seconds\":" + json::number(factor_seconds);
    out += ",\"factorize_attempts\":" +
           std::to_string(handle.stats().attempts);
    if (!ckpt_path.empty()) {
      out += ",\"checkpoint\":{";
      out += "\"path\":\"" + json::escape(ckpt_path) + "\"";
      out += ",\"ok\":" + std::string(ckpt_ok ? "true" : "false");
      out += ",\"bytes\":" + std::to_string(ckpt_bytes);
      out += ",\"save_seconds\":" + json::number(ckpt_save_seconds);
      out += ",\"load_seconds\":" + json::number(ckpt_load_seconds);
      out += ",\"factorize_seconds\":" + json::number(factor_seconds);
      out += ",\"load_vs_factorize_speedup\":" +
             json::number(ckpt_load_seconds > 0
                              ? factor_seconds / ckpt_load_seconds
                              : 0.0);
      out += "}";
    }
    out += ",\"sweep\":[";
    bool first = true;
    for (const SweepPoint& p : points) {
      if (!first) out += ",";
      first = false;
      out += "{\"nrhs\":" + std::to_string(p.nrhs);
      out += ",\"ok\":" + std::string(p.ok ? "true" : "false");
      out += ",\"solve_seconds\":" + json::number(p.solve_seconds);
      out += ",\"solves_per_sec\":" + json::number(p.solves_per_sec);
      out += ",\"amortized_seconds_per_rhs\":" +
             json::number(p.amortized_seconds_per_rhs);
      out += ",\"total_with_factor\":" + json::number(p.total_with_factor);
      out += ",\"max_column_error\":" + json::number(p.max_column_error);
      out += "}";
    }
    out += "]}\n";
    json::Value doc;
    std::string err;
    if (!json::parse(out, &doc, &err)) {
      std::fprintf(stderr, "internal error: report does not parse: %s\n",
                   err.c_str());
      return 1;
    }
    std::FILE* f = std::fopen(report_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   report_path.c_str());
      return 1;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("report: wrote %s\n", report_path.c_str());
  }
  return failures + ckpt_failures == 0 ? 0 : 1;
}
