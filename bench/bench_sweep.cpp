// Frequency-sweep driver: solves one coupled scene at k frequencies twice
// — naively (every frequency an independent factorize + solve) and with
// the recycling SweepDriver (shared symbolic analysis / cluster tree /
// block skeleton, ACA rank warm starts, frequency-lagged refinement) —
// and reports seconds-per-frequency, factorizations actually performed
// and the ACA cross-product counts for both. The "many frequencies, few
// factorizations" claim is the whole point: the recycled sweep must do
// measurably less work per frequency at the same accuracy. --report
// writes a RunReport with one run per mode and one per recycled frequency;
// CI asserts recycled wall-clock < 0.6x naive and factorizations < k on it.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "coupled/sweep.h"
#include "fembem/shifted.h"

using namespace cs;
using coupled::Config;
using coupled::Strategy;
using coupled::SweepOptions;
using coupled::SweepStats;

namespace {

double counter(const coupled::SweepFrequencyStats& f, const char* name) {
  auto it = f.counters.find(name);
  return it != f.counters.end() ? it->second : 0.0;
}

double counter_sum(const SweepStats& sw, const char* name) {
  double total = 0;
  for (const auto& f : sw.freqs) total += counter(f, name);
  return total;
}

double worst_error(const SweepStats& sw) {
  double worst = 0;
  for (const auto& f : sw.freqs) worst = std::max(worst, f.relative_error);
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.describe("n", "total unknowns of the scene (default 6000)");
  args.describe("freqs",
                "frequencies: start:stop:step or comma list "
                "(default 1.1:1.275:0.025, 8 points)");
  args.describe("strategy",
                "coupling strategy name (default multi-solve-compressed)");
  args.describe("scatterers", "extra detached BEM shells (default 1)");
  args.describe("eps", "low-rank accuracy (default 1e-4)");
  args.describe("tol", "refinement tolerance (default 1e-8)");
  args.describe("lagged-sweeps",
                "refinement-sweep floor for lagged solves (default 40; "
                "sweeps are ~10x cheaper than a refactorization)");
  args.describe("no-lagged", "disable tier-3 frequency-lagged refinement");
  bench::describe_threads(args);
  bench::describe_precision(args);
  bench::Observability::describe(args);
  args.check(
      "Frequency sweep with factorization recycling vs the naive sweep: "
      "amortizes symbolic analysis, cluster trees, ACA ranks and (via "
      "frequency-lagged refinement) whole factorizations across the "
      "shifted operators A(omega) = K + (sigma - omega^2) M.");
  bench::Observability obs(args, "bench_sweep");

  fembem::SweepParams sp;
  sp.total_unknowns = static_cast<index_t>(args.get_int("n", 6000));
  sp.scatterers = static_cast<index_t>(args.get_int("scatterers", 1));
  // A frequency-response-style fine grid: the lagged contraction rate
  // scales with |omega^2 - omega'^2|, so closely spaced frequencies are
  // exactly where tier 3 pays (EXPERIMENTS.md).
  const std::vector<double> omegas = args.get_range(
      "freqs", {1.1, 1.125, 1.15, 1.175, 1.2, 1.225, 1.25, 1.275});

  Config cfg;
  cfg.strategy = bench::strategy_by_name(args.get(
      "strategy", coupled::strategy_name(Strategy::kMultiSolveCompressed)));
  cfg.eps = args.get_double("eps", 1e-4);
  cfg.refine_tolerance = args.get_double("tol", 1e-8);
  cfg.refine_iterations = 4;
  bench::apply_threads(args, cfg);
  bench::apply_precision(args, cfg);

  log_info("[sweep] building scene: N=", sp.total_unknowns, ", ",
           omegas.size(), " frequencies, strategy ",
           coupled::strategy_name(cfg.strategy));
  fembem::SweepFamily<double> family(sp);
  log_info("[sweep] scene: nv=", family.nv(), " ns=", family.ns());

  auto run_mode = [&](bool recycle) {
    SweepOptions opt;
    opt.config = cfg;
    opt.recycle = recycle;
    opt.lagged_refinement = recycle && !args.get_bool("no-lagged", false);
    opt.lagged_refine_iterations =
        static_cast<int>(args.get_int("lagged-sweeps", 40));
    coupled::SweepDriver<double> driver(family, opt);
    log_info("[sweep] ", recycle ? "recycled" : "naive", " sweep ...");
    SweepStats sw = driver.run(omegas);
    log_info("[sweep]   -> ", sw.success ? "ok" : sw.failure.c_str(), ", ",
             TablePrinter::fmt(sw.total_seconds, 2), " s total, ",
             sw.factorizations, " factorizations, ", sw.lagged_solves,
             " lagged solves");
    return sw;
  };

  const SweepStats naive = run_mode(false);
  const SweepStats recycled = run_mode(true);

  TablePrinter table({"mode", "s/freq", "total s", "factorizations",
                      "lagged", "aca crosses", "worst rel err"});
  auto add_mode = [&](const char* mode, const SweepStats& sw) {
    const double aca_crosses = counter_sum(sw, "aca.iterations");
    table.add_row({mode, TablePrinter::fmt(sw.seconds_per_frequency, 3),
                   TablePrinter::fmt(sw.total_seconds, 2),
                   TablePrinter::fmt_int(sw.factorizations),
                   TablePrinter::fmt_int(sw.lagged_solves),
                   TablePrinter::fmt_int(static_cast<long long>(aca_crosses)),
                   bench::sci(worst_error(sw))});
    obs.add(mode, "summary", &cfg, sw.success,
            {{"frequencies", static_cast<double>(omegas.size())},
             {"seconds_per_frequency", sw.seconds_per_frequency},
             {"total_seconds", sw.total_seconds},
             {"factorizations", static_cast<double>(sw.factorizations)},
             {"lagged_solves", static_cast<double>(sw.lagged_solves)},
             {"aca_crosses", aca_crosses},
             {"worst_relative_error", worst_error(sw)}},
            sw.failure);
  };
  add_mode("naive", naive);
  add_mode("recycled", recycled);
  std::printf("\nfrequency sweep, %zu points, %s, N=%lld\n", omegas.size(),
              coupled::strategy_name(cfg.strategy),
              static_cast<long long>(sp.total_unknowns));
  table.print();

  // Per-frequency detail of the recycled sweep: which tier served each
  // frequency, and the refinement effort it took.
  std::printf("\nrecycled sweep per frequency:\n");
  std::printf("  %8s %10s %14s %8s %12s\n", "omega", "s", "served by",
              "sweeps", "rel err");
  for (const auto& f : recycled.freqs) {
    std::printf("  %8.3f %10.3f %14s %8d %12.2e\n", f.omega, f.seconds,
                f.lagged ? "lagged" : "refactorized", f.refine_sweeps,
                f.relative_error);
    char omega[32];
    std::snprintf(omega, sizeof(omega), "omega=%g", f.omega);
    obs.add("recycled", omega, &cfg, true,
            {{"omega", f.omega},
             {"seconds", f.seconds},
             {"lagged", f.lagged ? 1.0 : 0.0},
             {"refactorized", f.refactorized ? 1.0 : 0.0},
             {"refine_sweeps", static_cast<double>(f.refine_sweeps)},
             {"relative_error", f.relative_error},
             {"aca_crosses", counter(f, "aca.iterations")}},
            f.fallback_reason);
  }

  const double speedup = recycled.total_seconds > 0
                             ? naive.total_seconds / recycled.total_seconds
                             : 0.0;
  std::printf("\nrecycled vs naive: %.2fx faster, %d vs %d factorizations, "
              "%lld vs %lld ACA crosses\n",
              speedup, recycled.factorizations, naive.factorizations,
              static_cast<long long>(counter_sum(recycled,
                                                 "aca.iterations")),
              static_cast<long long>(counter_sum(naive, "aca.iterations")));

  // Self-validation: the sweep exists to amortize; if the recycled sweep
  // did not save at least one factorization at equal accuracy the
  // recycling machinery regressed.
  bool valid = naive.success && recycled.success;
  if (valid && recycled.factorizations >= static_cast<int>(omegas.size())) {
    std::fprintf(stderr,
                 "VALIDATION: recycled sweep refactorized at every "
                 "frequency (no lagged service)\n");
    valid = false;
  }
  const double worst_recycled = worst_error(recycled);
  if (valid && cfg.refine_tolerance > 0 &&
      worst_recycled > 100 * cfg.refine_tolerance) {
    std::fprintf(stderr,
                 "VALIDATION: recycled relative error %.2e far above the "
                 "refinement tolerance %.2e\n",
                 worst_recycled, cfg.refine_tolerance);
    valid = false;
  }
  if (!valid) ++bench::unexpected_failures();

  obs.finish();
  return bench::exit_status();
}
