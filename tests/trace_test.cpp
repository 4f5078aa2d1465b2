// Tests of the tracing/metrics layer (common/trace.h): Chrome-trace export
// validity, disabled-path cost, concurrent emission, ring-buffer overflow,
// counter/gauge tracks, the Metrics snapshot, the PhaseTimes concurrency
// semantics the stage timers rely on, and one end-to-end traced solve.
#include "common/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/timer.h"
#include "coupled/coupled.h"
#include "coupled/report.h"
#include "fembem/system.h"

namespace cs {
namespace {

/// Every test starts from a disabled, empty tracer and leaves it that way
/// (the tracer is a process-wide singleton).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
};

TEST_F(TraceTest, DisabledPathRecordsNothing) {
  auto& tracer = Tracer::instance();
  ASSERT_FALSE(tracer.enabled());
  {
    TraceSpan span("test", "outer");
    span.arg("k", 1).arg("v", 2.5).arg("s", std::string("x"));
    TraceSpan inner("test", "inner");
    trace_instant("test", "tick");
    trace_counter("c", 1.0);
    trace_thread_name("main");
  }
  // No per-thread buffer is even created while disabled.
  EXPECT_EQ(tracer.thread_count(), 0u);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST_F(TraceTest, SpanExportValidatesAndCarriesArgs) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  {
    TraceSpan outer("cat", "outer");
    outer.arg("n", 42).arg("eps", 0.5);
    {
      TraceSpan inner("cat", "inner");
      trace_instant("cat", "mark");
    }
  }
  trace_counter("my.counter", 7.0);
  const std::string text = tracer.to_json();
  EXPECT_EQ(validate_chrome_trace(text), "");

  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(text, &doc, &err)) << err;
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found_args = false, found_counter = false;
  for (const auto& e : events->array) {
    const json::Value* name = e.find("name");
    const json::Value* ph = e.find("ph");
    if (name == nullptr || ph == nullptr) continue;
    if (name->string == "outer" && ph->string == "E") {
      const json::Value* args = e.find("args");
      ASSERT_NE(args, nullptr);
      const json::Value* n = args->find("n");
      ASSERT_NE(n, nullptr);
      EXPECT_EQ(n->number, 42);
      found_args = true;
    }
    if (name->string == "my.counter" && ph->string == "C") {
      const json::Value* args = e.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("value"), nullptr);
      EXPECT_EQ(args->find("value")->number, 7.0);
      found_counter = true;
    }
  }
  EXPECT_TRUE(found_args);
  EXPECT_TRUE(found_counter);
}

TEST_F(TraceTest, TimestampsMonotonicPerThread) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  for (int i = 0; i < 100; ++i) {
    TraceSpan span("cat", "tick");
  }
  EXPECT_EQ(validate_chrome_trace(tracer.to_json()), "");
}

TEST_F(TraceTest, ConcurrentEmissionExportsEveryThread) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      trace_thread_name("trace_test.worker");
      for (int i = 0; i < kSpans; ++i) {
        TraceSpan span("worker", "unit");
        span.arg("i", i);
        trace_gauge_add("test.inflight", 1);
        trace_gauge_add("test.inflight", -1);
      }
    });
  }
  for (auto& w : workers) w.join();

  const std::string text = tracer.to_json();
  EXPECT_EQ(validate_chrome_trace(text), "");
  EXPECT_GE(tracer.thread_count(), static_cast<std::size_t>(kThreads));

  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(text, &doc, &err)) << err;
  std::set<double> tids;
  for (const auto& e : doc.find("traceEvents")->array) {
    const json::Value* ph = e.find("ph");
    if (ph != nullptr && ph->string != "M") tids.insert(e.find("tid")->number);
  }
  EXPECT_GE(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(TraceTest, RingOverflowKeepsSpansBalanced) {
  auto& tracer = Tracer::instance();
  tracer.set_buffer_capacity(64);
  tracer.set_enabled(true);
  for (int i = 0; i < 500; ++i) {
    TraceSpan outer("cat", "outer");
    TraceSpan inner("cat", "inner");
    trace_instant("cat", "mark");
  }
  EXPECT_GT(tracer.dropped_count(), 0u);
  // Drops must never orphan a B or E: the export still validates.
  EXPECT_EQ(validate_chrome_trace(tracer.to_json()), "");
  tracer.set_buffer_capacity(0);  // restore the default for later tests
}

TEST_F(TraceTest, SampleCountersEmitsMemoryTracks) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  trace_gauge_add("test.gauge", 3);
  tracer.sample_counters();
  const std::string text = tracer.to_json();
  EXPECT_EQ(validate_chrome_trace(text), "");

  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(text, &doc, &err)) << err;
  std::set<std::string> counters;
  for (const auto& e : doc.find("traceEvents")->array) {
    const json::Value* ph = e.find("ph");
    if (ph != nullptr && ph->string == "C")
      counters.insert(e.find("name")->string);
  }
  EXPECT_TRUE(counters.count("memory.current"));
  EXPECT_TRUE(counters.count("memory.peak"));
  EXPECT_TRUE(counters.count("test.gauge"));
}

TEST_F(TraceTest, SamplerRecordsTimelineAndStops) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  {
    TraceSampler sampler(200);  // 0.2 ms period
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const std::size_t after_stop = tracer.event_count();
  EXPECT_GT(after_stop, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // No samples arrive after destruction.
  EXPECT_EQ(tracer.event_count(), after_stop);
  EXPECT_EQ(validate_chrome_trace(tracer.to_json()), "");
}

TEST_F(TraceTest, SamplerIsInertWhileDisabled) {
  auto& tracer = Tracer::instance();
  ASSERT_FALSE(tracer.enabled());
  {
    TraceSampler sampler(100);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST_F(TraceTest, GaugeTracksCumulativeValue) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  EXPECT_EQ(tracer.gauge_add("g", 2), 2);
  EXPECT_EQ(tracer.gauge_add("g", 3), 5);
  EXPECT_EQ(tracer.gauge_add("g", -5), 0);
  EXPECT_EQ(validate_chrome_trace(tracer.to_json()), "");
}

TEST_F(TraceTest, ClearDropsEventsAndRestartsClock) {
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  { TraceSpan span("cat", "x"); }
  EXPECT_GT(tracer.event_count(), 0u);
  tracer.set_enabled(false);
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.thread_count(), 0u);
}

TEST_F(TraceTest, ValidatorRejectsMalformedTraces) {
  EXPECT_NE(validate_chrome_trace("not json"), "");
  EXPECT_NE(validate_chrome_trace("[]"), "");
  EXPECT_NE(validate_chrome_trace("{\"foo\": 1}"), "");
  // Unbalanced E.
  EXPECT_NE(validate_chrome_trace(
                R"({"traceEvents":[{"name":"x","cat":"c","ph":"E","ts":1,)"
                R"("pid":1,"tid":1}]})"),
            "");
  // Span left open.
  EXPECT_NE(validate_chrome_trace(
                R"({"traceEvents":[{"name":"x","cat":"c","ph":"B","ts":1,)"
                R"("pid":1,"tid":1}]})"),
            "");
  // Non-monotonic timestamps on one thread.
  EXPECT_NE(validate_chrome_trace(
                R"({"traceEvents":[)"
                R"({"name":"a","cat":"c","ph":"i","ts":5,"pid":1,"tid":1},)"
                R"({"name":"b","cat":"c","ph":"i","ts":1,"pid":1,"tid":1}]})"),
            "");
  // Mismatched nesting.
  EXPECT_NE(validate_chrome_trace(
                R"({"traceEvents":[)"
                R"({"name":"a","cat":"c","ph":"B","ts":1,"pid":1,"tid":1},)"
                R"({"name":"b","cat":"c","ph":"B","ts":2,"pid":1,"tid":1},)"
                R"({"name":"a","cat":"c","ph":"E","ts":3,"pid":1,"tid":1},)"
                R"({"name":"b","cat":"c","ph":"E","ts":4,"pid":1,"tid":1}]})"),
            "");
}

TEST_F(TraceTest, MetricsSnapshotReportsNonZeroCounters) {
  auto& metrics = Metrics::instance();
  metrics.reset();
  metrics.add(Metric::kPanelsFolded, 3);
  metrics.add(Metric::kPanelsFolded, 2);
  metrics.observe_max(Metric::kRecompressRankMax, 17);
  metrics.observe_max(Metric::kRecompressRankMax, 11);  // not a new max
  auto snap = metrics.snapshot();
  EXPECT_EQ(snap.at("schur.panels_folded"), 5);
  EXPECT_EQ(snap.at("recompress.rank_max"), 17);
  EXPECT_EQ(snap.count("refine.sweeps"), 0u);  // zero counters omitted
  metrics.reset();
  EXPECT_TRUE(metrics.snapshot().empty());
}

// Regression: SolveStats is copied/assigned while its PhaseTimes may have
// open scopes on worker threads; the copy must take the accumulated times
// without inheriting the open-scope bookkeeping.
TEST(PhaseTimesTest, CopyAndAssignWhileScopesOpen) {
  PhaseTimes times;
  times.add("done", 1.5);
  ScopedPhase open(times, "busy");

  PhaseTimes copied(times);
  EXPECT_EQ(copied.get("done"), 1.5);

  PhaseTimes assigned;
  assigned.add("old", 9.0);
  assigned = times;
  EXPECT_EQ(assigned.get("done"), 1.5);
  EXPECT_EQ(assigned.get("old"), 0.0);

  // Closing the original's scope accumulates there, not in the copies.
  const double copied_busy = copied.get("busy");
  { ScopedPhase finish_original(times, "busy"); }
  EXPECT_GE(times.get("busy"), 0.0);
  EXPECT_EQ(copied.get("busy"), copied_busy);
}

TEST(PhaseTimesTest, OverlappingScopesMergeInsteadOfSumming) {
  PhaseTimes times;
  Timer wall;
  {
    ScopedPhase a(times, "p");
    ScopedPhase b(times, "p");  // overlaps a completely
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double elapsed = wall.seconds();
  // Merged interval: accumulated <= wall clock (a sum over scopes would be
  // ~2x the wall clock).
  EXPECT_LE(times.get("p"), elapsed * 1.5);
  EXPECT_GT(times.get("p"), 0.0);
}

TEST_F(TraceTest, TracedSolveProducesValidTraceAndReport) {
  auto sys = fembem::make_pipe_system<double>({.total_unknowns = 1500});
  coupled::Config cfg;
  cfg.strategy = coupled::Strategy::kMultiSolveCompressed;
  cfg.num_threads = 4;
  cfg.n_c = 16;
  cfg.n_S = 32;
  // Tracing belongs to the caller: enable the process tracer around the
  // solve and export it afterwards, as the bench drivers do.
  auto& tracer = Tracer::instance();
  tracer.set_enabled(true);
  auto stats = coupled::solve_coupled(sys, cfg);
  EXPECT_TRUE(tracer.enabled());  // the solve leaves the tracer alone
  tracer.set_enabled(false);
  ASSERT_TRUE(stats.success);

  // Stage timings and run counters landed in the stats.
  EXPECT_GT(stats.stages.get("schur.panel_solve"), 0.0);
  EXPECT_GT(stats.stages.get("schur.axpy"), 0.0);
  // One folded panel per n_S = 32 columns of S.
  EXPECT_EQ(stats.counters.at("schur.panels_folded"), (sys.ns() + 31) / 32);

  // The exported trace is a valid file with the Schur stage spans and the
  // memory timeline the solve session sampled.
  const std::string trace_path =
      ::testing::TempDir() + "/trace_test.solve.trace.json";
  ASSERT_TRUE(tracer.write_json(trace_path));
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_EQ(validate_chrome_trace(text), "");

  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(text, &doc, &err)) << err;
  std::set<std::string> names;
  for (const auto& e : doc.find("traceEvents")->array)
    if (e.find("name") != nullptr) names.insert(e.find("name")->string);
  EXPECT_TRUE(names.count("schur.panel_solve"));
  EXPECT_TRUE(names.count("memory.current"));
  std::remove(trace_path.c_str());

  // The report writer renders the same stats as valid JSON, and a
  // driver's metrics and detail (with or without stats) round-trip too.
  coupled::RunReport report("trace_test");
  report.add("multi-solve-compressed", "traced", cfg, stats);
  report.add("multi-solve-compressed", "nrhs=1", cfg, stats,
             {{"solves_per_sec", 12.5}, {"max_column_error", 1e-9}});
  report.add("recycled", "omega=1.1", nullptr, false,
             {{"omega", 1.1}, {"lagged", 0}}, "no_factors");
  json::Value report_doc;
  ASSERT_TRUE(json::parse(report.json(), &report_doc, &err)) << err;
  const json::Value* runs = report_doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 3u);
  const json::Value* run_stats = runs->array[0].find("stats");
  ASSERT_NE(run_stats, nullptr);
  EXPECT_NE(run_stats->find("counters"), nullptr);
  EXPECT_NE(run_stats->find("stages"), nullptr);
  EXPECT_EQ(runs->array[0].find("metrics"), nullptr);
  EXPECT_EQ(runs->array[0].find("success"), nullptr);  // stats carry it

  const json::Value& with_stats = runs->array[1];
  EXPECT_NE(with_stats.find("stats"), nullptr);
  const json::Value* metrics = with_stats.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->object.size(), 2u);
  EXPECT_EQ(metrics->object[0].first, "solves_per_sec");  // added order
  EXPECT_EQ(metrics->object[0].second.number, 12.5);
  EXPECT_EQ(metrics->object[1].second.number, 1e-9);

  const json::Value& metrics_only = runs->array[2];
  EXPECT_EQ(metrics_only.find("stats"), nullptr);
  EXPECT_EQ(metrics_only.find("config"), nullptr);
  ASSERT_NE(metrics_only.find("success"), nullptr);
  EXPECT_FALSE(metrics_only.find("success")->boolean);
  ASSERT_NE(metrics_only.find("detail"), nullptr);
  EXPECT_EQ(metrics_only.find("detail")->string, "no_factors");
  ASSERT_NE(metrics_only.find("metrics"), nullptr);
  EXPECT_EQ(metrics_only.find("metrics")->find("omega")->number, 1.1);
}

TEST_F(TraceTest, EveryTimedPhaseAndStageIsTraced) {
  // SolveStats::phases / ::stages and the "phase" / "stage" spans come
  // from one timing scope, so for every strategy the two name sets agree.
  auto sys = fembem::make_pipe_system<double>({.total_unknowns = 1500});
  auto& tracer = Tracer::instance();
  for (coupled::Strategy s : coupled::kAllStrategies) {
    SCOPED_TRACE(coupled::strategy_name(s));
    coupled::Config cfg;
    cfg.strategy = s;
    cfg.num_threads = 2;
    cfg.n_c = 16;
    cfg.n_S = 32;
    cfg.n_b = 2;
    tracer.clear();
    tracer.set_enabled(true);
    auto h = coupled::factorize_coupled(sys, cfg);
    tracer.set_enabled(false);
    ASSERT_TRUE(h.ok()) << h.stats().failure;

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(tracer.to_json(), &doc, &err)) << err;
    std::set<std::string> traced_phases, traced_stages;
    for (const auto& e : doc.find("traceEvents")->array) {
      const json::Value* cat = e.find("cat");
      const json::Value* ph = e.find("ph");
      if (cat == nullptr || ph == nullptr || ph->string != "B") continue;
      if (cat->string == "phase") traced_phases.insert(e.find("name")->string);
      if (cat->string == "stage") traced_stages.insert(e.find("name")->string);
    }
    std::set<std::string> timed_phases, timed_stages;
    for (const auto& [name, seconds] : h.stats().phases.all())
      timed_phases.insert(name);
    for (const auto& [name, seconds] : h.stats().stages.all())
      timed_stages.insert(name);
    EXPECT_FALSE(timed_phases.empty());
    EXPECT_EQ(traced_phases, timed_phases);
    EXPECT_EQ(traced_stages, timed_stages);
  }
}

}  // namespace
}  // namespace cs
