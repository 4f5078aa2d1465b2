// Shared threading utilities for the task-parallel execution layer.
//
// Every parallel path in the library (H-matrix leaf loops, the multifrontal
// task tree and block-parallel multi-factorization) follows the same two
// rules, which these helpers encode once:
//  * exceptions (BudgetExceeded, SingularMatrix) raised inside a worker
//    must never escape an OpenMP region -- they are captured and rethrown
//    on the calling thread, so a parallel run fails exactly like the
//    serial run;
//  * the thread count is a per-solve knob (coupled::Config::num_threads),
//    installed with ScopedNumThreads and read back with resolve_threads,
//    never a process-wide hardcode.
#pragma once

#include <omp.h>

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

namespace cs {

/// Effective worker count for a requested value (0 = hardware default, i.e.
/// whatever the enclosing OpenMP environment provides).
inline int resolve_threads(int requested) {
  return requested > 0 ? requested : omp_get_max_threads();
}

/// RAII OpenMP thread-count override: installs `n` (if > 0) for the scope
/// and restores the previous value on exit. Affects the calling thread's
/// subsequent parallel regions only.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n) : previous_(omp_get_max_threads()) {
    if (n > 0) omp_set_num_threads(n);
  }
  ~ScopedNumThreads() { omp_set_num_threads(previous_); }

  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int previous_;
};

/// Run f(i) for i in [0, n) on an OpenMP team. The first exception thrown
/// by any iteration is captured and rethrown on the calling thread after
/// the loop; remaining iterations are skipped once a failure is seen.
/// Inside an active parallel region (where a nested `parallel for` would
/// serialize anyway) the loop runs inline and exceptions propagate
/// directly.
template <class F>
void parallel_for_capture(std::size_t n, F&& f) {
  if (n == 0) return;
  if (n == 1 || omp_in_parallel() || omp_get_max_threads() <= 1) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  std::exception_ptr error = nullptr;
  std::atomic<bool> failed{false};
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < n; ++i) {
    if (failed.load(std::memory_order_relaxed)) continue;
    try {
      f(i);
    } catch (...) {
#pragma omp critical(cs_parallel_for_capture)
      {
        if (!failed.exchange(true)) error = std::current_exception();
      }
    }
  }
  if (error) std::rethrow_exception(error);
}

/// Recursion depth down to which divide-and-conquer algorithms should keep
/// spawning OpenMP tasks: deep enough to feed every thread with a few tasks
/// of slack for load balancing, shallow enough that task overhead stays
/// negligible against the block arithmetic.
inline int task_depth() {
  const int threads = omp_get_max_threads();
  int d = 0;
  while ((1 << d) < 4 * threads) ++d;
  return d;
}

/// Run the given thunks concurrently as OpenMP tasks (the last one inline on
/// the encountering thread) when inside a parallel region with task budget
/// (`depth > 0`); sequentially, in order, otherwise. All thunks complete
/// before returning; the first exception (by thunk order) is rethrown on the
/// calling thread.
inline void run_task_group(int depth, std::vector<std::function<void()>> fs) {
  if (fs.empty()) return;
  if (depth <= 0 || fs.size() == 1 || !omp_in_parallel()) {
    for (auto& f : fs) f();
    return;
  }
  std::vector<std::exception_ptr> errors(fs.size());
#pragma omp taskgroup
  {
    for (std::size_t t = 0; t + 1 < fs.size(); ++t) {
#pragma omp task default(shared) firstprivate(t)
      {
        try {
          fs[t]();
        } catch (...) {
          errors[t] = std::current_exception();
        }
      }
    }
    try {
      fs.back()();
    } catch (...) {
      errors.back() = std::current_exception();
    }
  }
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace cs
