#include "coupled/sweep.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "common/timer.h"
#include "common/trace.h"
#include "la/matrix.h"

namespace cs::coupled {

namespace {

/// One-column RHS block from the system's built-in right-hand side.
template <class T>
void fill_rhs(const fembem::CoupledSystem<T>& sys, la::Matrix<T>& Bv,
              la::Matrix<T>& Bs) {
  for (index_t i = 0; i < sys.nv(); ++i) Bv(i, 0) = sys.b_v[i];
  for (index_t i = 0; i < sys.ns(); ++i) Bs(i, 0) = sys.b_s[i];
}

}  // namespace

template <class T>
SweepStats SweepDriver<T>::run(const std::vector<double>& omegas) {
  SweepStats sw;
  sw.freqs.reserve(omegas.size());

  // The effective per-frequency config: recycling needs a convergence
  // target (a lagged solve must *demonstrate* convergence) and enough
  // refinement headroom for the lagged operator distance. Raising
  // refine_iterations is harmless for fresh solves — they early-exit on
  // refine_tolerance.
  Config cfg = options_.config;
  const bool lagged_enabled = options_.recycle &&
                              options_.lagged_refinement &&
                              cfg.refine_tolerance > 0;
  if (lagged_enabled)
    cfg.refine_iterations = std::max(
        cfg.refine_iterations, std::max(1, options_.lagged_refine_iterations));

  // The factors retained from the previous frequency, together with the
  // system they were factored from (the handle borrows it). Destruction
  // order on replacement: the old handle dies before the old system.
  FactoredCoupled<T> held;
  std::unique_ptr<fembem::CoupledSystem<T>> held_sys;

  Timer sweep_timer;
  for (double omega : omegas) {
    SweepFrequencyStats fs;
    fs.omega = omega;
    const Metrics::Values before = Metrics::instance().values();
    Timer freq_timer;

    auto sys = std::make_unique<fembem::CoupledSystem<T>>(family_.at(omega));
    la::Matrix<T> Bv(sys->nv(), 1), Bs(sys->ns(), 1);
    fill_rhs(*sys, Bv, Bs);

    bool solved = false;
    SolveStats ss;

    // Tier 3: frequency-lagged refinement on the retained factors.
    if (lagged_enabled && held.ok()) {
      ss = held.solve_lagged(*sys, Bv.view(), Bs.view());
      if (ss.success) {
        solved = true;
        fs.lagged = true;
        ++sw.lagged_solves;
      } else {
        fs.fallback_reason =
            ss.error.site.empty() ? "lagged_failed" : ss.error.site;
        // The failed attempt left a partial iterate in the views.
        fill_rhs(*sys, Bv, Bs);
      }
    } else if (options_.recycle && options_.lagged_refinement && held.ok()) {
      fs.fallback_reason = "no_tolerance";
    } else if (lagged_enabled) {
      fs.fallback_reason = "no_factors";
    } else {
      fs.fallback_reason = "disabled";
    }

    if (!solved) {
      // Tiers 1-2 live inside factorize_coupled via the SweepContext.
      FactoredCoupled<T> fresh = factorize_coupled(
          *sys, cfg, options_.recycle ? &context_ : nullptr);
      ++sw.factorizations;
      fs.refactorized = true;
      if (!fresh.ok()) {
        sw.failure = "factorization at omega=" + std::to_string(omega) +
                     " failed: " + fresh.stats().failure;
        fs.seconds = freq_timer.seconds();
        fs.counters = Metrics::instance().delta_since(before);
        sw.freqs.push_back(std::move(fs));
        break;
      }
      ss = fresh.solve(Bv.view(), Bs.view());
      if (!ss.success) {
        sw.failure = "solve at omega=" + std::to_string(omega) +
                     " failed: " + ss.failure;
        fs.seconds = freq_timer.seconds();
        fs.counters = Metrics::instance().delta_since(before);
        sw.freqs.push_back(std::move(fs));
        break;
      }
      // Retain for the next frequency; drop the previous handle before
      // the system it borrows.
      held = std::move(fresh);
      held_sys = std::move(sys);
    }

    // Error against the family's frequency-independent reference, judged
    // by whichever system object is still alive for this frequency.
    const fembem::CoupledSystem<T>& judge = sys ? *sys : *held_sys;
    la::Vector<T> xv(judge.nv()), xs(judge.ns());
    for (index_t i = 0; i < judge.nv(); ++i) xv[i] = Bv(i, 0);
    for (index_t i = 0; i < judge.ns(); ++i) xs[i] = Bs(i, 0);
    fs.relative_error = judge.relative_error(xv, xs);
    fs.refine_sweeps = ss.refine_sweeps;
    fs.seconds = freq_timer.seconds();
    fs.counters = Metrics::instance().delta_since(before);
    log_info("sweep omega=", omega, fs.lagged ? " lagged" : " refactorized",
             " err=", fs.relative_error, " in ", fs.seconds, "s");
    sw.freqs.push_back(std::move(fs));
  }

  sw.total_seconds = sweep_timer.seconds();
  sw.success = sw.failure.empty() && sw.freqs.size() == omegas.size();
  if (!sw.freqs.empty())
    sw.seconds_per_frequency =
        sw.total_seconds / static_cast<double>(sw.freqs.size());
  return sw;
}

template class SweepDriver<double>;
template class SweepDriver<complexd>;

}  // namespace cs::coupled
