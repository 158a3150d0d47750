// Fixed-size worker pool for the geometry kernel engine.
//
// The pool exposes exactly one primitive, parallel_for: run `job(i)` for
// i in [0, njobs) and block until all complete. Work is index-addressed so
// callers collect results into pre-sized, index-ordered buffers — the
// deterministic "ordered reduction" pattern that keeps parallel kernel
// results bit-identical to their serial execution (DESIGN.md §9).
//
// Concurrency contract:
//  * parallel_for is serialized internally: a second caller (e.g. another
//    svc shard thread inside a geometry kernel) that finds the pool busy
//    runs its loop inline on its own thread instead of waiting. Results cannot differ — only the scheduling does.
//  * Nested parallel_for from inside a job therefore also degrades to an
//    inline loop (no deadlock).
//  * Jobs may throw; the first exception is rethrown on the calling thread
//    after the batch drains.
#pragma once

#include <cstddef>
#include <functional>

namespace chc::common {

class ThreadPool {
 public:
  /// `threads` is the total concurrency including the calling thread, so
  /// the pool spawns threads-1 workers. threads == 1 spawns none and
  /// parallel_for degenerates to a plain in-order loop.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threads() const { return threads_; }

  /// Runs job(0), ..., job(njobs-1), the caller participating, and returns
  /// once every index has completed. Order and interleaving are
  /// unspecified (index-addressed outputs make that irrelevant); with
  /// threads() == 1 the loop runs strictly in index order.
  void parallel_for(std::size_t njobs,
                    const std::function<void(std::size_t)>& job);

  /// Process-wide pool for the geometry kernels. Sized on first use from
  /// CHC_GEO_THREADS (1 = fully serial); unset or 0 means
  /// hardware_concurrency.
  static ThreadPool& global();

  /// Re-sizes the global pool (benchmarks/tests sweeping thread counts);
  /// 0 restores the CHC_GEO_THREADS / hardware_concurrency default.
  /// Must not race with concurrent global() kernel use.
  static void set_global_threads(std::size_t threads);

 private:
  struct Impl;
  std::size_t threads_;
  Impl* impl_;  // null when threads_ == 1
};

}  // namespace chc::common
