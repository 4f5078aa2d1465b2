// Wall-clock timing helpers used by the experiment harness to report the
// per-phase times (sparse factorization, Schur assembly, dense
// factorization, solves) that the paper's figures are built from.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>

namespace cs {

/// Simple wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates named phase durations; used by coupled::SolveStats.
///
/// Thread-safe: ScopedPhase instances may be opened concurrently from
/// worker threads. Overlapping scopes of the *same*
/// phase are merged -- the phase accumulates the wall-clock time during
/// which at least one scope was active, not the sum over threads -- so a
/// phase never double-counts when its work fans out over a team.
class PhaseTimes {
 public:
  PhaseTimes() = default;

  PhaseTimes(const PhaseTimes& other) {
    std::lock_guard<std::mutex> lock(other.mutex_);
    times_ = other.times_;
  }
  PhaseTimes& operator=(const PhaseTimes& other) {
    if (this == &other) return *this;
    std::map<std::string, Entry> copy;
    {
      std::lock_guard<std::mutex> lock(other.mutex_);
      copy = other.times_;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    times_ = std::move(copy);
    return *this;
  }

  /// Direct accumulation of a pre-measured duration.
  void add(const std::string& phase, double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    times_[phase].seconds += seconds;
  }

  /// Open one concurrent scope of `phase` (see ScopedPhase).
  void begin(const std::string& phase) {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& e = times_[phase];
    if (e.active++ == 0) e.started = clock::now();
  }

  /// Close one concurrent scope of `phase`; when the last scope closes the
  /// covered wall-clock interval is added.
  void end(const std::string& phase) {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& e = times_[phase];
    if (--e.active == 0)
      e.seconds +=
          std::chrono::duration<double>(clock::now() - e.started).count();
  }

  double get(const std::string& phase) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = times_.find(phase);
    return it == times_.end() ? 0.0 : it->second.seconds;
  }

  double total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    double s = 0.0;
    for (const auto& [k, v] : times_) s += v.seconds;
    return s;
  }

  /// Snapshot of all phase totals.
  std::map<std::string, double> all() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> out;
    for (const auto& [k, v] : times_) out[k] = v.seconds;
    return out;
  }

 private:
  using clock = std::chrono::steady_clock;
  struct Entry {
    double seconds = 0.0;
    int active = 0;  ///< currently open scopes of this phase
    clock::time_point started;  ///< when active went 0 -> 1
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> times_;
};

/// RAII helper accumulating the lifetime of a scope into a PhaseTimes entry.
class ScopedPhase {
 public:
  ScopedPhase(PhaseTimes& sink, std::string phase)
      : sink_(sink), phase_(std::move(phase)) {
    sink_.begin(phase_);
  }
  ~ScopedPhase() { sink_.end(phase_); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimes& sink_;
  std::string phase_;
};

}  // namespace cs
