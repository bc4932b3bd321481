// Work-stealing fork-join layer: the one scheduler of engine::Pool.
//
// Every piece of parallel work in the engine is a task on this layer.
// Pool::parallel_for forks one task per sweep point and joins them;
// code running inside a point (or inside any task) can open its own
// TaskScope and fork into the same worker set — no second pool, no
// dedicated threads. The separator executor and the multiproc
// simulator fork this way (doc/ENGINE.md "Task layer").
//
// Scheduling model:
//   * every pool thread (workers and the thread driving the pool)
//     owns one deque slot of the pool's TaskScheduler;
//   * fork() pushes onto the forking thread's deque (LIFO for the
//     owner — depth-first, cache-friendly);
//   * an idle thread steals the *older half* of a victim's deque
//     (breadth-first for thieves — big subtrees migrate, not leaves);
//   * join() helps: it runs queued tasks (its own first, then steals)
//     until the scope's forks have all completed, so a joining thread
//     is never parked while runnable work exists;
//   * idle workers (serve()) and joiners that found nothing to run
//     park on the scheduler's one mutex and condition variable.
//
// Determinism contract: fork() with no ambient scheduler — or a
// single-thread one — runs the task inline, immediately, on the
// calling thread, in exact fork order. That path is the sequential
// reference the conformance suite compares against; it performs no
// queuing and no synchronization.
//
// Exceptions: a task's exception is captured in its scope; join()
// rethrows the exception of the *lowest fork index* that failed, after
// every fork has completed. Pool::parallel_for inherits that contract
// by forking its indices in order.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bsmp::engine {

class TaskScope;

/// Which mechanism a TaskScope forks for. Fork/park counters are split
/// by phase so the metrics-v2 `tasks.phases` block can attribute
/// parallelism (and its idle cost) to the simulator mechanism that
/// created it — the advisor's per-mechanism calibration reads these.
enum class ForkPhase : int {
  kNone = 0,             ///< unattributed scope (default TaskScope())
  kMachineTile,          ///< multiproc top-level machine-tile wavefronts
  kRegime1Relocate,      ///< regime-1 relocation subtrees
  kExecutorLeaf,         ///< standalone executor sibling-region forks
  kCount,
};

inline constexpr std::size_t kNumForkPhases =
    static_cast<std::size_t>(ForkPhase::kCount);

/// Stable name of a phase, matching the trace span names where one
/// exists ("machine-tile", "regime1-relocate", ...).
const char* fork_phase_name(ForkPhase p);

/// Per-phase slice of the task counters (metrics-v2 `tasks.phases`).
struct PhaseTaskStats {
  std::uint64_t spawned = 0;     ///< tasks pushed onto a deque
  std::uint64_t inlined = 0;     ///< forks executed inline (serial path)
  std::uint64_t join_waits = 0;  ///< joins that parked (no runnable work)
  std::uint64_t park_ns = 0;     ///< wall time spent parked in join()
};

inline PhaseTaskStats operator-(PhaseTaskStats a, const PhaseTaskStats& b) {
  a.spawned -= b.spawned;
  a.inlined -= b.inlined;
  a.join_waits -= b.join_waits;
  a.park_ns -= b.park_ns;
  return a;
}

/// Task-layer counters of one scheduler (serialized into the per-pass
/// and per-sweep `tasks` blocks of the bsmp-metrics-v2 artifact). All
/// monotone; reset per measurement pass via Pool::reset_task_stats(),
/// or attributed per sweep via the operator- delta.
struct TaskStats {
  std::uint64_t spawned = 0;     ///< tasks pushed onto a deque
  std::uint64_t inlined = 0;     ///< forks executed inline (serial path)
  std::uint64_t stolen = 0;      ///< tasks migrated by steal operations
  std::uint64_t steal_ops = 0;   ///< successful steal-half operations
  std::uint64_t join_waits = 0;  ///< joins that parked (no runnable work)
  /// Same counters split by the forking mechanism (indexed by ForkPhase).
  std::array<PhaseTaskStats, kNumForkPhases> phase{};
};

/// Counter-wise difference: scope a scheduler's monotone counters to
/// one sweep or pass (`after - before`).
inline TaskStats operator-(TaskStats a, const TaskStats& b) {
  a.spawned -= b.spawned;
  a.inlined -= b.inlined;
  a.stolen -= b.stolen;
  a.steal_ops -= b.steal_ops;
  a.join_waits -= b.join_waits;
  for (std::size_t i = 0; i < kNumForkPhases; ++i)
    a.phase[i] = a.phase[i] - b.phase[i];
  return a;
}

/// Per-worker task deques plus the steal protocol. One per Pool; the
/// pool's threads each bind one slot (TaskScheduler::Bind) so TaskScope
/// can find the ambient scheduler through a thread-local.
class TaskScheduler {
 public:
  /// One deque slot per pool thread (workers + the driving thread).
  explicit TaskScheduler(int slots);

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Number of deque slots (== the owning pool's size()).
  int slots() const { return nslots_; }

  /// Whether forked tasks can actually run concurrently. False for a
  /// single-slot scheduler: TaskScope then runs forks inline, in fork
  /// order — the sequential reference execution.
  bool parallel() const { return nslots_ > 1; }

  /// Scheduler the calling thread is bound to, or nullptr. TaskScope
  /// captures this at construction.
  static TaskScheduler* current();
  /// Slot of the calling thread (meaningful when current() != nullptr).
  static int current_slot();

  /// RAII binding of the calling thread to a deque slot. serve() binds
  /// a worker for its lifetime; Pool::parallel_for binds an outside
  /// caller to slot 0 for the call, and Pool::bind_caller() exposes the
  /// same binding for code that forks without a surrounding
  /// parallel_for. Saves and restores the previous binding.
  ///
  /// At most one thread may hold a given slot's binding at a time
  /// (slots are deques with a single owner); binding a slot another
  /// thread currently holds throws precondition_error rather than
  /// silently sharing the deque. Re-binding a slot the calling thread
  /// already holds is allowed (nested bindings on one thread).
  class Bind {
   public:
    Bind(TaskScheduler* sched, int slot);
    ~Bind();
    Bind(const Bind&) = delete;
    Bind& operator=(const Bind&) = delete;

   private:
    TaskScheduler* prev_sched_;
    int prev_slot_;
    TaskScheduler* sched_;
    int slot_;
    bool owned_ = false;  // this Bind claimed the slot (outermost holder)
  };

  /// Worker loop of one pool thread: bind `slot`, run queued tasks
  /// (own deque first, then steals), and park while every deque is
  /// empty. Returns once stop() has been called.
  void serve(int slot);

  /// Make every serve() loop return (the owning Pool's destructor).
  void stop();

  /// Snapshot of the counters (relaxed reads; exact once quiescent).
  TaskStats stats() const;
  void reset_stats();

 private:
  friend class TaskScope;

  struct Task {
    std::function<void()> fn;
    TaskScope* scope = nullptr;
    std::size_t index = 0;
  };

  struct Slot {
    std::mutex mu;
    std::deque<Task> q;
    // Thread currently bound to this slot (default id when unbound);
    // enforces the one-owner rule in Bind.
    std::atomic<std::thread::id> owner{};
  };

  /// True while any task sits in a deque.
  bool has_pending() const {
    return pending_.load(std::memory_order_acquire) != 0;
  }

  /// Enqueue onto `slot`'s deque and wake parked threads.
  void push(int slot, Task t);

  /// Pop the newest task of the own deque, else steal the older half of
  /// some victim's deque (executing the first, depositing the rest on
  /// the own deque). False when every deque is empty.
  bool try_acquire(int slot, Task& out);

  /// Execute a task: capture its exception into the scope, then mark it
  /// finished (waking joiners).
  static void run(Task& t);

  /// Wake every parked thread, idle workers and joiners alike (a task
  /// was enqueued, or a scope's last fork finished).
  void notify_progress();

  int nslots_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<std::size_t> pending_{0};

  // Parking lot of idle workers and of joiners that found no runnable
  // work; stop_ is guarded by sleep_mu_.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  bool stop_ = false;

  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> inlined_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> steal_ops_{0};
  std::atomic<std::uint64_t> join_waits_{0};

  /// Per-phase slices of spawned / inlined / join_waits / park_ns.
  struct PhaseCounters {
    std::atomic<std::uint64_t> spawned{0};
    std::atomic<std::uint64_t> inlined{0};
    std::atomic<std::uint64_t> join_waits{0};
    std::atomic<std::uint64_t> park_ns{0};
  };
  std::array<PhaseCounters, kNumForkPhases> phase_{};
};

/// A fork-join region. fork() schedules (or inlines) a task; join()
/// blocks until every fork has completed, helping with queued work
/// meanwhile, and rethrows the lowest-fork-index exception. Scopes
/// nest freely: a task may open its own TaskScope on the same
/// scheduler, and every Pool::parallel_for call is one (pool.hpp).
class TaskScope {
 public:
  /// Captures the calling thread's ambient scheduler (may be none).
  /// `phase` attributes this scope's fork/park counters to one
  /// mechanism in the metrics-v2 `tasks.phases` block.
  explicit TaskScope(ForkPhase phase = ForkPhase::kNone);
  /// Joins (discarding any not-yet-rethrown exception) if the caller
  /// did not; prefer an explicit join().
  ~TaskScope();

  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

  /// Whether forks may run concurrently (ambient multi-slot scheduler).
  /// When false every fork runs inline, in fork order.
  bool parallel() const { return sched_ != nullptr && sched_->parallel(); }

  /// Schedule fn; runs inline immediately when !parallel().
  void fork(std::function<void()> fn);

  /// Wait for all forks, helping with queued tasks; rethrows the
  /// exception of the lowest-index failed fork, if any.
  void join();

 private:
  friend class TaskScheduler;

  void record_error(std::size_t index);
  void finished();

  TaskScheduler* sched_;
  int slot_;
  ForkPhase phase_;
  std::size_t next_index_ = 0;
  std::atomic<std::size_t> outstanding_{0};
  bool joined_ = false;

  std::mutex emu_;
  std::exception_ptr error_;
  std::size_t error_index_ = 0;
};

}  // namespace bsmp::engine
