// Fault-injection tests of the resilient solve engine: the failpoint
// framework itself (spec grammar, firing semantics, env arming), the
// OOC store's structured I/O errors, config validation, and — the core
// guarantee — that firing every registered failpoint under every strategy
// yields either success-after-recovery or a correctly coded SolveError,
// never a crash, deadlock or tracked-byte leak.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/trace.h"
#include "coupled/coupled.h"
#include "coupled/report.h"
#include "hmat/hmatrix.h"
#include "sparsedirect/multifrontal.h"
#include "sparsedirect/ooc.h"

namespace cs {
namespace {

using coupled::Config;
using coupled::SolveStats;
using coupled::Strategy;

/// Arms the registry directly and guarantees cleanup even on test failure.
struct RegistryGuard {
  explicit RegistryGuard(const std::string& spec) {
    FailpointRegistry::instance().arm(spec);
  }
  ~RegistryGuard() { FailpointRegistry::instance().disarm_all(); }
};

TEST(FailpointSpec, CheckAcceptsEveryModeOnKnownSites) {
  EXPECT_EQ(FailpointRegistry::check(""), "");
  EXPECT_EQ(FailpointRegistry::check("ooc.write=once"), "");
  EXPECT_EQ(FailpointRegistry::check("ooc.write=hit:3"), "");
  EXPECT_EQ(FailpointRegistry::check("ooc.write=prob:0.5"), "");
  EXPECT_EQ(FailpointRegistry::check("ooc.write=prob:0.5:42"), "");
  EXPECT_EQ(FailpointRegistry::check("ooc.write=always"), "");
  EXPECT_EQ(FailpointRegistry::check("ooc.write=off"), "");
  EXPECT_EQ(
      FailpointRegistry::check("ooc.write=once, hldlt.pivot=hit:2; "
                               "aca.converge=always"),
      "");
}

TEST(FailpointSpec, CheckRejectsMalformedEntries) {
  EXPECT_NE(FailpointRegistry::check("nosuchsite=once"), "");
  EXPECT_NE(FailpointRegistry::check("ooc.write"), "");
  EXPECT_NE(FailpointRegistry::check("ooc.write=banana"), "");
  EXPECT_NE(FailpointRegistry::check("ooc.write=hit:0"), "");
  EXPECT_NE(FailpointRegistry::check("ooc.write=hit:x"), "");
  EXPECT_NE(FailpointRegistry::check("ooc.write=prob:0"), "");
  EXPECT_NE(FailpointRegistry::check("ooc.write=prob:1.5"), "");
  EXPECT_NE(FailpointRegistry::check("ooc.write=prob:0.5:"), "");
  EXPECT_THROW(FailpointRegistry::instance().arm("nosuchsite=once"),
               std::invalid_argument);
}

TEST(FailpointSemantics, OnceFiresExactlyOnFirstHit) {
  RegistryGuard guard("dense.factor=once");
  EXPECT_TRUE(failpoint("dense.factor"));
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(failpoint("dense.factor"));
  auto& reg = FailpointRegistry::instance();
  EXPECT_EQ(reg.hit_count("dense.factor"), 6);
  EXPECT_EQ(reg.fire_count("dense.factor"), 1);
  // Unarmed sites never fire, but still cheap to query.
  EXPECT_FALSE(failpoint("hlu.pivot"));
}

TEST(FailpointSemantics, NthFiresExactlyOnNthHit) {
  RegistryGuard guard("dense.factor=hit:3");
  EXPECT_FALSE(failpoint("dense.factor"));
  EXPECT_FALSE(failpoint("dense.factor"));
  EXPECT_TRUE(failpoint("dense.factor"));
  EXPECT_FALSE(failpoint("dense.factor"));
  EXPECT_EQ(FailpointRegistry::instance().fire_count("dense.factor"), 1);
}

TEST(FailpointSemantics, AlwaysFiresEveryHit) {
  RegistryGuard guard("dense.factor=always");
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(failpoint("dense.factor"));
}

TEST(FailpointSemantics, OffCountsHitsWithoutFiring) {
  RegistryGuard guard("dense.factor=off");
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(failpoint("dense.factor"));
  EXPECT_EQ(FailpointRegistry::instance().hit_count("dense.factor"), 4);
  EXPECT_EQ(FailpointRegistry::instance().fire_count("dense.factor"), 0);
}

TEST(FailpointSemantics, SeededProbabilityIsDeterministic) {
  auto sequence = [] {
    std::vector<bool> fired;
    RegistryGuard guard("dense.factor=prob:0.5:12345");
    for (int i = 0; i < 64; ++i) fired.push_back(failpoint("dense.factor"));
    return fired;
  };
  const auto a = sequence();
  const auto b = sequence();
  EXPECT_EQ(a, b);  // same seed, same per-site RNG, same firing pattern
  int fires = 0;
  for (const bool f : a) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);
}

TEST(FailpointSemantics, DisarmAllResetsEverything) {
  FailpointRegistry::instance().arm("dense.factor=always");
  EXPECT_TRUE(FailpointRegistry::instance().any_armed());
  FailpointRegistry::instance().disarm_all();
  EXPECT_FALSE(FailpointRegistry::instance().any_armed());
  EXPECT_FALSE(failpoint("dense.factor"));
  EXPECT_EQ(FailpointRegistry::instance().hit_count("dense.factor"), 0);
}

TEST(ScopedFailpointsTest, ArmsSpecAndEnvAndDisarmsOnExit) {
  ASSERT_EQ(::setenv("CS_FAILPOINTS", "hlu.pivot=always", 1), 0);
  {
    ScopedFailpoints scoped("dense.factor=always");
    EXPECT_TRUE(scoped.armed_any());
    EXPECT_TRUE(failpoint("dense.factor"));  // from the spec
    EXPECT_TRUE(failpoint("hlu.pivot"));     // from the environment
  }
  EXPECT_FALSE(FailpointRegistry::instance().any_armed());
  ::unsetenv("CS_FAILPOINTS");
}

TEST(ScopedFailpointsTest, EmptyScopeLeavesExternalArmsAlone) {
  // A ScopedFailpoints that armed nothing must not disarm sites a test
  // (or an outer scope) armed directly on the registry.
  RegistryGuard guard("dense.factor=always");
  {
    ScopedFailpoints scoped("");
    EXPECT_FALSE(scoped.armed_any());
  }
  EXPECT_TRUE(FailpointRegistry::instance().any_armed());
  EXPECT_TRUE(failpoint("dense.factor"));
}

// ---------------------------------------------------------------------------
// OOC store error reporting
// ---------------------------------------------------------------------------

sparsedirect::TiledPanel<double> make_panel(index_t rows, index_t cols) {
  Rng rng(3);
  la::Matrix<double> P(rows, cols);
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i) P(i, j) = rng.uniform(-1, 1);
  return sparsedirect::TiledPanel<double>::from_dense(
      la::ConstMatrixView<double>(P.view()), false, 0, 0, 0, nullptr,
      nullptr);
}

TEST(OocErrors, InjectedWriteFailureIsTransientIoError) {
  sparsedirect::OocPanelStore<double> store;
  RegistryGuard guard("ooc.write=once");
  auto panel = make_panel(40, 12);
  try {
    store.spill(std::move(panel));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.site(), "ooc.write");
    EXPECT_EQ(e.errno_value(), EIO);
    EXPECT_TRUE(e.transient());
  }
}

TEST(OocErrors, InjectedDiskFullIsNotTransient) {
  sparsedirect::OocPanelStore<double> store;
  RegistryGuard guard("ooc.enospc=once");
  auto panel = make_panel(40, 12);
  try {
    store.spill(std::move(panel));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.errno_value(), ENOSPC);
    EXPECT_FALSE(e.transient());
  }
}

TEST(OocErrors, InjectedReadFailureIsIoError) {
  sparsedirect::OocPanelStore<double> store;
  auto handle = store.spill(make_panel(40, 12));
  ASSERT_TRUE(handle.valid());
  RegistryGuard guard("ooc.read=once");
  EXPECT_THROW(store.load(handle), IoError);
  // The injection is spent: the same handle loads fine afterwards.
  auto restored = store.load(handle);
  EXPECT_EQ(restored.rows(), 40);
}

TEST(OocErrors, SyncOnSpillRoundTrips) {
  sparsedirect::OocPanelStore<double> store("/tmp",
                                            /*sync_on_spill=*/true);
  auto handle = store.spill(make_panel(64, 16));
  ASSERT_TRUE(handle.valid());
  auto restored = store.load(handle);
  EXPECT_EQ(restored.rows(), 64);
  EXPECT_EQ(restored.cols(), 16);
}

// ---------------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------------

const fembem::CoupledSystem<double>& tiny_system() {
  static auto sys =
      fembem::make_pipe_system<double>({.total_unknowns = 1600});
  return sys;
}

TEST(ConfigValidation, ReportsStructuredInternalError) {
  Config cfg;
  cfg.n_c = 0;
  auto stats = coupled::solve_coupled(tiny_system(), cfg);
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.error.code, ErrorCode::kInternal);
  EXPECT_EQ(stats.error.site, "config");
  EXPECT_NE(stats.error.detail.find("n_c"), std::string::npos);
}

TEST(ConfigValidation, CatchesEachInvalidField) {
  Config good;
  EXPECT_EQ(coupled::validate_config(good), "");
  auto bad = [](auto&& mutate) {
    Config c;
    mutate(c);
    return coupled::validate_config(c);
  };
  EXPECT_NE(bad([](Config& c) { c.n_c = 0; }), "");
  EXPECT_NE(bad([](Config& c) { c.n_b = 0; }), "");
  EXPECT_NE(bad([](Config& c) {
              c.strategy = Strategy::kMultiSolveCompressed;
              c.n_c = 64;
              c.n_S = 32;
            }),
            "");
  EXPECT_NE(bad([](Config& c) { c.eps = 0; }), "");
  EXPECT_NE(bad([](Config& c) { c.eta = -1; }), "");
  EXPECT_NE(bad([](Config& c) { c.hmat_leaf = 1; }), "");
  EXPECT_NE(bad([](Config& c) { c.refine_iterations = -1; }), "");
  EXPECT_NE(bad([](Config& c) { c.num_threads = -1; }), "");
  EXPECT_NE(bad([](Config& c) {
              c.out_of_core = true;
              c.ooc_dir.clear();
            }),
            "");
  EXPECT_NE(bad([](Config& c) { c.failpoints = "nosuchsite=once"; }), "");
  // A huge n_c on the *non*-compressed multi-solve stays legal (the
  // solver clamps panels to n_BEM).
  EXPECT_EQ(bad([](Config& c) {
              c.strategy = Strategy::kMultiSolve;
              c.n_c = 100000;
            }),
            "");
}

// ---------------------------------------------------------------------------
// The core guarantee: every site x every strategy, no crash, no leak
// ---------------------------------------------------------------------------

TEST(FailpointSweep, EverySiteEveryStrategyRecoversOrReportsCleanly) {
  const auto& sys = tiny_system();
  for (const std::string& site : FailpointRegistry::known_sites()) {
    for (Strategy s : coupled::kAllStrategies) {
      Config cfg;
      cfg.strategy = s;
      cfg.n_c = 32;
      cfg.n_S = 64;
      cfg.n_b = 2;
      // Every site reachable somewhere in the sweep: OOC on so the spill
      // paths run; the symmetric system runs the H-LDLT pivot guard.
      cfg.out_of_core = true;
      cfg.failpoints = site + "=once";
      const std::size_t before = MemoryTracker::instance().current();
      auto stats = coupled::solve_coupled(sys, cfg);
      const std::string label =
          site + " x " + coupled::strategy_name(s);
      // Either the solve recovered (or never hit the site) and succeeded,
      // or it reports a structured classification — never a throw, never
      // an unclassified failure.
      if (stats.success) {
        EXPECT_TRUE(stats.error.ok()) << label;
        EXPECT_LT(stats.relative_error, 1e-1) << label;
      } else {
        EXPECT_NE(stats.error.code, ErrorCode::kNone) << label;
        EXPECT_FALSE(stats.failure.empty()) << label;
      }
      EXPECT_EQ(MemoryTracker::instance().current(), before)
          << label << ": tracked bytes leaked";
      EXPECT_FALSE(FailpointRegistry::instance().any_armed()) << label;
    }
  }
}

TEST(FailpointSweep, AlwaysModeStillNeverCrashes) {
  // "always" defeats retry-based recovery for most sites: the solve must
  // end in a structured error (or succeed via a non-retry fallback, e.g.
  // the in-core OOC fallback or the ACA dense fallback) without crashing
  // or leaking.
  const auto& sys = tiny_system();
  for (const std::string& site : FailpointRegistry::known_sites()) {
    Config cfg;
    cfg.strategy = Strategy::kMultiSolveCompressed;
    cfg.n_c = 32;
    cfg.n_S = 64;
    cfg.out_of_core = true;
    cfg.failpoints = site + "=always";
    const std::size_t before = MemoryTracker::instance().current();
    auto stats = coupled::solve_coupled(sys, cfg);
    if (!stats.success) {
      EXPECT_NE(stats.error.code, ErrorCode::kNone) << site;
    }
    EXPECT_EQ(MemoryTracker::instance().current(), before) << site;
  }
}

// ---------------------------------------------------------------------------
// Exceptions keep their type and diagnostics through parallel regions
// ---------------------------------------------------------------------------

TEST(ParallelErrors, BudgetDiagnosticsSurviveParallelAssembly) {
  const auto& sys = tiny_system();
  hmat::ClusterTree tree(sys.surface_points(), 24);
  auto& tracker = MemoryTracker::instance();
  const std::size_t before = tracker.current();
  ScopedNumThreads threads(4);
  ScopedBudget budget(tracker.current() + 16 * 1024);
  try {
    auto H = hmat::HMatrix<double>::assemble(tree, tree, *sys.A_ss,
                                             hmat::HOptions{});
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    // The original exception type and its diagnostics crossed the
    // parallel leaf loop intact.
    EXPECT_GT(e.requested(), 0u);
    EXPECT_EQ(e.budget(), before + 16 * 1024);
    EXPECT_LE(e.in_use(), e.budget());
  }
  EXPECT_EQ(tracker.current(), before);
}

TEST(ParallelErrors, ParallelForCaptureRethrowsOriginalType) {
  try {
    parallel_for_capture(64, [](std::size_t i) {
      if (i == 13) throw IoError("ooc.read", "poisoned worker", EIO);
    });
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.site(), "ooc.read");
    EXPECT_EQ(e.errno_value(), EIO);
  }
}

TEST(ParallelErrors, InjectedFailureInParallelFrontsKeepsType) {
  // A failpoint firing inside the task-parallel multifrontal tree walk
  // must reach the caller as the original la::SingularMatrix.
  const auto& sys = tiny_system();
  RegistryGuard guard("mf.front_factor=once");
  sparsedirect::MultifrontalSolver<double> mf;
  sparsedirect::SolverOptions opt;
  opt.parallel_fronts = true;
  EXPECT_THROW(mf.factorize(sys.A_vv, opt), la::SingularMatrix);
}

// ---------------------------------------------------------------------------
// Report JSON carries the structured error and recovery trail
// ---------------------------------------------------------------------------

TEST(ReportJson, CarriesErrorAndRecoveryTrail) {
  const auto& sys = tiny_system();
  Config cfg;
  cfg.strategy = Strategy::kMultiSolveCompressed;
  cfg.n_c = 32;
  cfg.n_S = 64;
  cfg.failpoints = "hldlt.pivot=once";
  auto stats = coupled::solve_coupled(sys, cfg);
  ASSERT_TRUE(stats.success) << stats.failure;
  ASSERT_EQ(stats.recoveries.size(), 1u);
  const std::string json = coupled::stats_json(stats);
  EXPECT_NE(json.find("\"recoveries\""), std::string::npos);
  EXPECT_NE(json.find("hldlt_to_hlu"), std::string::npos);
  EXPECT_NE(json.find("\"attempts\":2"), std::string::npos);

  Config bad;
  bad.eps = -1;
  auto failed = coupled::solve_coupled(sys, bad);
  ASSERT_FALSE(failed.success);
  const std::string failed_json = coupled::stats_json(failed);
  EXPECT_NE(failed_json.find("\"error\""), std::string::npos);
  EXPECT_NE(failed_json.find("\"code\":\"internal\""), std::string::npos);
  EXPECT_NE(failed_json.find("\"site\":\"config\""), std::string::npos);
  const std::string cfg_json = coupled::config_json(cfg);
  EXPECT_NE(cfg_json.find("\"failpoints\""), std::string::npos);
  EXPECT_NE(cfg_json.find("\"auto_recover\":true"), std::string::npos);
}

// Non-finite stats (NaN relative_error from a failed run, inf compression
// ratio from a division by zero) must round-trip through the repo's own
// parser: they render as null, never as bare nan/inf (invalid JSON).
TEST(ReportJson, NonFiniteDoublesEmitNullNotBareNan) {
  SolveStats stats;
  stats.success = false;
  stats.failure = "synthetic failure";
  stats.relative_error = std::nan("");
  stats.schur_compression_ratio = std::numeric_limits<double>::infinity();
  stats.counters["weird"] = -std::numeric_limits<double>::infinity();
  stats.nrhs = 4;
  stats.refine_residuals = {1e-9, std::nan(""), 2e-9, 3e-9};

  const std::string text = coupled::stats_json(stats);
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;

  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(text, &doc, &err)) << err << "\n" << text;
  const json::Value* rel = doc.find("relative_error");
  ASSERT_NE(rel, nullptr);
  EXPECT_TRUE(rel->is_null());
  const json::Value* ratio = doc.find("schur_compression_ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_TRUE(ratio->is_null());
  const json::Value* nrhs = doc.find("nrhs");
  ASSERT_NE(nrhs, nullptr);
  EXPECT_EQ(nrhs->number, 4);
  const json::Value* res = doc.find("refine_residuals");
  ASSERT_NE(res, nullptr);
  ASSERT_EQ(res->array.size(), 4u);
  EXPECT_TRUE(res->array[1].is_null());
  EXPECT_DOUBLE_EQ(res->array[2].number, 2e-9);
}

// The trace exporter must apply the same rule: counter samples and span
// args with non-finite values still yield a parseable file.
TEST(ReportJson, TraceExportSurvivesNonFiniteValues) {
  auto& tracer = Tracer::instance();
  const bool was = tracer.enabled();
  tracer.set_enabled(true);
  {
    TraceSpan span("test", "nonfinite.span");
    span.arg("bad", std::nan(""));
    trace_counter("nonfinite.counter",
                  std::numeric_limits<double>::infinity());
  }
  const std::string text = tracer.to_json();
  tracer.set_enabled(was);

  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(text, &doc, &err)) << err;
}

}  // namespace
}  // namespace cs
