// Solver-wide tracing and metrics.
//
// The paper's figures are per-phase time and peak-memory curves; *where
// inside a phase* the time goes (which stage, on which worker) is
// invisible to those coarse buckets. This layer records a task-level
// timeline of the whole solve path:
//
//  * TraceSpan    — RAII duration spans ("B"/"E" events) with a category
//                   and optional key/value args, recorded into per-thread
//                   ring buffers;
//  * trace_instant / trace_counter — point events and counter samples;
//  * trace_gauge_add — named in-flight gauges (live job counts) that
//                   emit a counter sample on every change and are also
//                   polled by the sampler;
//  * TraceSampler — a background thread periodically sampling
//                   MemoryTracker current/peak and all gauges as counter
//                   tracks (the memory timeline);
//  * Tracer::write_json — Chrome trace-event JSON, loadable in
//                   chrome://tracing and https://ui.perfetto.dev;
//  * validate_chrome_trace — structural validation of an exported trace
//                   (used by tests and the CI smoke driver);
//  * Metrics      — always-on scalar run counters (admission decisions,
//                   panels folded, recompression ranks) summarized
//                   into coupled::SolveStats::counters.
//
// Cost model: when tracing is disabled every recording entry point is one
// relaxed atomic load and an early return — no allocation, no locking, no
// per-thread state is created. Span/counter names must be string literals
// (or otherwise outlive the tracer); dynamic values belong in args.
//
// Thread-safety: each thread writes only its own buffer, under that
// buffer's (uncontended) mutex so that export from another thread is safe
// and ThreadSanitizer-clean. Buffers survive thread exit; OpenMP pools
// keep the buffer count bounded by the thread count.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cs {

/// Chrome trace-event phases used by this layer.
enum class TracePhase : char {
  kBegin = 'B',
  kEnd = 'E',
  kInstant = 'i',
  kCounter = 'C',
};

struct TraceEvent {
  const char* name = nullptr;      ///< literal; never owned
  const char* category = nullptr;  ///< literal; never owned
  TracePhase phase = TracePhase::kInstant;
  double ts_us = 0;          ///< microseconds since the tracer epoch
  double counter_value = 0;  ///< kCounter only
  std::string args;          ///< pre-rendered `"k":v` pairs, comma-joined
};

/// Process-wide trace recorder.
class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Enable/disable recording. Disabling keeps recorded events (so a run
  /// can stop tracing and export later); use clear() to drop them.
  void set_enabled(bool on);

  /// Drop all recorded events, buffers and gauges and restart the clock.
  void clear();

  /// Per-thread ring-buffer capacity for buffers created after the call
  /// (begin/instant/counter events; end events are exempt so spans stay
  /// balanced — see record()). 0 restores the default.
  void set_buffer_capacity(std::size_t events);

  double now_us() const;

  void record(TracePhase phase, const char* category, const char* name,
              double counter_value = 0, std::string args = {});

  /// Name the calling thread's track in the exported trace.
  void name_thread(const char* name);

  /// Named monotonic-id gauge: adds `delta`, emits a counter sample when
  /// enabled, returns the new value. Gauges persist across clear() calls
  /// only as names; their values reset.
  long gauge_add(const char* name, long delta);

  /// Sample memory.current / memory.peak and every registered gauge as
  /// counter events (called by TraceSampler, usable directly in tests).
  void sample_counters();

  // -- export / introspection ----------------------------------------------

  /// Chrome trace-event JSON ({"traceEvents": [...]}).
  std::string to_json() const;
  /// Write to_json() to `path`; false (with a log_warn) on I/O failure.
  bool write_json(const std::string& path) const;

  std::size_t thread_count() const;
  std::size_t event_count() const;
  std::size_t dropped_count() const;

 private:
  struct ThreadBuffer {
    mutable std::mutex mutex;
    int tid = 0;
    std::string thread_name;
    std::vector<TraceEvent> events;
    std::size_t capacity = 0;
    std::size_t dropped = 0;
    int open_dropped = 0;  ///< depth of spans whose B event was dropped
  };

  struct Gauge {
    std::string name;
    std::atomic<long> value{0};
  };

  Tracer();
  ThreadBuffer* buffer_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{1};
  std::atomic<std::size_t> capacity_;

  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::int64_t epoch_ns_ = 0;
};

// -- convenience free functions --------------------------------------------

inline bool trace_enabled() { return Tracer::instance().enabled(); }

inline void trace_instant(const char* category, const char* name,
                          std::string args = {}) {
  auto& t = Tracer::instance();
  if (t.enabled()) t.record(TracePhase::kInstant, category, name, 0,
                            std::move(args));
}

inline void trace_counter(const char* name, double value) {
  auto& t = Tracer::instance();
  if (t.enabled()) t.record(TracePhase::kCounter, "counter", name, value);
}

inline void trace_thread_name(const char* name) {
  auto& t = Tracer::instance();
  if (t.enabled()) t.name_thread(name);
}

inline long trace_gauge_add(const char* name, long delta) {
  return Tracer::instance().gauge_add(name, delta);
}

/// RAII duration span. The begin event is emitted at construction; args
/// attached with arg() ride on the end event (Perfetto merges B/E args on
/// one slice). When tracing is disabled the constructor is one atomic
/// load and the object holds an empty (non-allocating) string.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name)
      : enabled_(trace_enabled()), category_(category), name_(name) {
    if (enabled_)
      Tracer::instance().record(TracePhase::kBegin, category_, name_);
  }

  ~TraceSpan() {
    if (enabled_)
      Tracer::instance().record(TracePhase::kEnd, category_, name_, 0,
                                std::move(args_));
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  TraceSpan& arg(const char* key, double value) {
    if (enabled_) append(key, format_number(value));
    return *this;
  }
  TraceSpan& arg(const char* key, long long value) {
    if (enabled_) append(key, std::to_string(value));
    return *this;
  }
  TraceSpan& arg(const char* key, unsigned long long value) {
    if (enabled_) append(key, std::to_string(value));
    return *this;
  }
  TraceSpan& arg(const char* key, int value) {
    return arg(key, static_cast<long long>(value));
  }
  TraceSpan& arg(const char* key, long value) {
    return arg(key, static_cast<long long>(value));
  }
  TraceSpan& arg(const char* key, unsigned long value) {
    return arg(key, static_cast<unsigned long long>(value));
  }
  TraceSpan& arg(const char* key, const std::string& value);

 private:
  static std::string format_number(double value);
  void append(const char* key, const std::string& rendered);

  bool enabled_;
  const char* category_;
  const char* name_;
  std::string args_;
};

/// Background sampler: records memory.current / memory.peak and all gauges
/// every `period_us` for the lifetime of the object. No thread is started
/// when tracing is disabled at construction or period_us <= 0.
class TraceSampler {
 public:
  explicit TraceSampler(std::int64_t period_us);
  ~TraceSampler();

  TraceSampler(const TraceSampler&) = delete;
  TraceSampler& operator=(const TraceSampler&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Structural validation of a Chrome trace-event JSON document: parses the
/// text, checks the traceEvents schema (required fields per phase),
/// balanced B/E nesting per thread, non-decreasing timestamps per thread
/// and that counter events carry a numeric series. Returns an empty string
/// when valid, else a description of the first problem.
std::string validate_chrome_trace(const std::string& json_text);

// -- always-on run metrics --------------------------------------------------

/// Scalar counters summarizing one solve, collected whether or not tracing
/// is enabled (plain atomics; the cost is negligible against the work they
/// count). The counters are process-cumulative; a run that wants per-run
/// figures takes a values() snapshot on entry and reports delta_since() on
/// exit (what solve_coupled and FactoredCoupled::solve do for
/// SolveStats::counters), so several solves in one process — a frequency
/// sweep, a bench driver — each carry their own numbers.
enum class Metric : int {
  kPanelsFolded = 0,         ///< panels folded into the Schur accumulator
  kMultifactoJobs,           ///< (bi, bj) factorization jobs run
  kAdmissionWaits,           ///< acquire() calls that had to wait
  kAdmissionWaitSec,         ///< total time spent waiting for admission
  kAdmissionDegraded,        ///< planner reduced the requested parallelism
  kRecompressions,           ///< Rk-leaf recompressions (compressed AXPY)
  kRecompressRankMax,        ///< largest rank after a recompression
  kAcaFallbacks,             ///< ACA rank-cap hits -> dense compression
  kRefineSweeps,             ///< iterative-refinement sweeps run
  kFailpointFires,           ///< injected failures (common/failpoint.h)
  kRecoveries,               ///< degrade-and-retry recovery actions taken
  kOocRetries,               ///< OOC I/O operations retried after a failure
  kOocInCoreFallbacks,       ///< OOC spills abandoned; panel kept in core
  kRefineStalls,             ///< refinement plateaus under single factors
  kPrecisionEscalations,     ///< single -> double factor re-factorizations
  kAcaIterations,            ///< ACA cross products built (adaptive steps)
  kAcaRankHintHits,          ///< warm-started ACA converged under the hint
  kAcaRankHintMisses,        ///< hinted cap bound; ACA re-ran at full cap
  kSparseAnalysisReuses,     ///< multifrontal factorizations on a reused
                             ///< symbolic analysis
  kHmatStructureReuses,      ///< H-matrix assemblies on a reused skeleton
  kLaggedSolves,             ///< frequency-lagged solve attempts (sweep)
  kServeRequests,            ///< solve requests accepted by the service
  kServeCacheHits,           ///< requests served by a resident factorization
  kServeCacheMisses,         ///< requests that had to factorize or restore
  kServeCacheEvictions,      ///< cache entries evicted (budget/LRU)
  kServeCacheSpills,         ///< evictions spilled to a checkpoint file
  kServeCacheRestores,       ///< entries re-admitted from a spill checkpoint
  kServeFactorizations,      ///< full factorizations run by the service
  kServeCoalescedBatches,    ///< coalesced solve() batch calls issued
  kServeCoalescedColumns,    ///< RHS columns carried by coalesced batches
  kCount
};

const char* metric_name(Metric m);

class Metrics {
 public:
  static Metrics& instance();

  void add(Metric m, double delta) {
    auto& slot = values_[static_cast<std::size_t>(m)];
    double cur = slot.load(std::memory_order_relaxed);
    while (!slot.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
    }
  }

  void observe_max(Metric m, double value) {
    auto& slot = values_[static_cast<std::size_t>(m)];
    double cur = slot.load(std::memory_order_relaxed);
    while (value > cur && !slot.compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }

  double get(Metric m) const {
    return values_[static_cast<std::size_t>(m)].load(
        std::memory_order_relaxed);
  }

  void reset() {
    for (auto& v : values_) v.store(0, std::memory_order_relaxed);
  }

  /// Non-zero counters by name (the SolveStats summary).
  std::map<std::string, double> snapshot() const;

  /// Raw values of every counter (zeros included) — the "before" snapshot
  /// of a per-run delta.
  using Values =
      std::array<double, static_cast<std::size_t>(Metric::kCount)>;
  Values values() const {
    Values out{};
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = values_[i].load(std::memory_order_relaxed);
    return out;
  }

  /// True for high-water metrics recorded with observe_max rather than
  /// add: their per-run figure is the current value (when it advanced
  /// past the snapshot), not a difference.
  static bool is_high_water(Metric m) {
    return m == Metric::kRecompressRankMax;
  }

  /// Per-run counters since `before` (a values() snapshot taken at run
  /// start): additive counters report the difference, high-water metrics
  /// their current value when it advanced; zero deltas are omitted.
  /// Concurrent runs in other threads smear into each other's deltas —
  /// the same caveat the global counters always had, now bounded to the
  /// overlap window instead of the whole process lifetime.
  std::map<std::string, double> delta_since(const Values& before) const;

 private:
  Metrics() = default;
  std::array<std::atomic<double>, static_cast<std::size_t>(Metric::kCount)>
      values_{};
};

}  // namespace cs
