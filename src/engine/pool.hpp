// Thread pool backing the sweep engine.
//
// A Pool owns `threads - 1` persistent worker threads plus one
// work-stealing TaskScheduler (engine/task.hpp) with a deque slot per
// thread; the thread driving the pool is the remaining executor, so
// Pool(k) runs on exactly k threads. The scheduler is the pool's only
// way to run work in parallel: idle workers serve its deques, and
// parallel_for is fork/join on it.
//
// parallel_for(n, body) forks body(0..n-1) in index order into one
// TaskScope and joins it, blocking until every index has completed.
// Exceptions thrown by body are captured; after all indices have run,
// the exception of the *lowest-index* failing point is rethrown, so
// error reporting is deterministic regardless of thread interleaving.
// Pool(1) has a one-slot scheduler, so its forks run inline on the
// calling thread in index order (no workers, no synchronization) — the
// reference execution the conformance tests compare against.
//
// Because every call is a TaskScope, parallelism nests:
//   * code running on a pool thread may open its own TaskScope and
//     fork subtasks into the same worker set (the separator executor
//     does this per recursion node);
//   * a parallel_for from a pool thread — a body calling back into its
//     own pool — forks from that thread's slot and helps while it joins;
//   * a call from any other thread binds it to slot 0 for the call.
//     Slot 0 has one owner at a time, so a second outside thread
//     calling while the first is inside throws precondition_error
//     before running any of its body;
//   * bind_caller() hands the calling thread slot 0 so fork-join work
//     can be driven without a surrounding parallel_for.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "engine/task.hpp"

namespace bsmp::engine {

class Pool {
 public:
  /// `threads <= 0` uses hardware_threads().
  explicit Pool(int threads = 0);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Total executors (workers + the thread driving the pool).
  int size() const { return size_; }

  /// Run body(i) for every i in [0, n); blocks until all complete.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Bind the calling thread to the pool's task scheduler (slot 0, the
  /// slot parallel_for gives an outside caller) so TaskScope forks made
  /// on this thread are executed by the pool's workers. Intended for
  /// driving fork-join work directly, without a parallel_for; at most
  /// one thread may hold the binding at a time — a second thread
  /// binding slot 0 (including via parallel_for) throws
  /// precondition_error rather than silently sharing the caller's deque.
  [[nodiscard]] TaskScheduler::Bind bind_caller() {
    return TaskScheduler::Bind(&sched_, 0);
  }

  /// Counters of the pool's scheduler (tasks spawned / inlined, steals,
  /// join waits; parallel_for indices included) — the `tasks` block of
  /// the metrics artifact.
  TaskStats task_stats() const { return sched_.stats(); }
  void reset_task_stats() { sched_.reset_stats(); }

  /// std::thread::hardware_concurrency, never less than 1.
  static int hardware_threads();

 private:
  int size_ = 1;
  TaskScheduler sched_;
  std::vector<std::thread> workers_;
};

}  // namespace bsmp::engine
