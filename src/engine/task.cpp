#include "engine/task.hpp"

#include <chrono>
#include <utility>

#include "core/expect.hpp"
#include "engine/trace.hpp"

namespace bsmp::engine {

namespace {

thread_local TaskScheduler* tl_sched = nullptr;
thread_local int tl_slot = -1;

}  // namespace

TaskScheduler* TaskScheduler::current() { return tl_sched; }
int TaskScheduler::current_slot() { return tl_slot; }

const char* fork_phase_name(ForkPhase p) {
  switch (p) {
    case ForkPhase::kMachineTile:
      return "machine-tile";
    case ForkPhase::kRegime1Relocate:
      return "regime1-relocate";
    case ForkPhase::kExecutorLeaf:
      return "executor-leaf";
    case ForkPhase::kNone:
    case ForkPhase::kCount:
      break;
  }
  return "none";
}

TaskScheduler::Bind::Bind(TaskScheduler* sched, int slot)
    : prev_sched_(tl_sched), prev_slot_(tl_slot), sched_(sched), slot_(slot) {
  BSMP_REQUIRE(sched != nullptr);
  BSMP_REQUIRE(slot >= 0 && slot < sched->slots());
  Slot& s = *sched->slots_[static_cast<std::size_t>(slot)];
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id expected{};
  if (s.owner.compare_exchange_strong(expected, self,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
    owned_ = true;  // release in ~Bind; nested same-thread binds do not
  } else {
    BSMP_REQUIRE_MSG(expected == self,
                     "task scheduler slot "
                         << slot
                         << " is already bound by another thread; at most "
                            "one thread may hold a slot binding at a time");
  }
  tl_sched = sched;
  tl_slot = slot;
}

TaskScheduler::Bind::~Bind() {
  if (owned_)
    sched_->slots_[static_cast<std::size_t>(slot_)]->owner.store(
        std::thread::id{}, std::memory_order_release);
  tl_sched = prev_sched_;
  tl_slot = prev_slot_;
}

TaskScheduler::TaskScheduler(int slots) : nslots_(slots) {
  BSMP_REQUIRE(slots >= 1);
  slots_.reserve(static_cast<std::size_t>(slots));
  for (int i = 0; i < slots; ++i) slots_.push_back(std::make_unique<Slot>());
}

void TaskScheduler::push(int slot, Task t) {
  pending_.fetch_add(1, std::memory_order_release);
  {
    Slot& s = *slots_[static_cast<std::size_t>(slot)];
    std::lock_guard<std::mutex> lk(s.mu);
    s.q.push_back(std::move(t));
  }
  notify_progress();
}

bool TaskScheduler::try_acquire(int slot, Task& out) {
  {
    // Own deque, newest first: depth-first on the forking thread.
    Slot& own = *slots_[static_cast<std::size_t>(slot)];
    std::lock_guard<std::mutex> lk(own.mu);
    if (!own.q.empty()) {
      out = std::move(own.q.back());
      own.q.pop_back();
      pending_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  // Steal sweep: take the older half of the first non-empty victim.
  for (int k = 1; k < nslots_; ++k) {
    int v = (slot + k) % nslots_;
    std::vector<Task> batch;
    {
      Slot& victim = *slots_[static_cast<std::size_t>(v)];
      std::lock_guard<std::mutex> lk(victim.mu);
      std::size_t n = victim.q.size();
      if (n == 0) continue;
      std::size_t take = (n + 1) / 2;
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(victim.q.front()));
        victim.q.pop_front();
      }
    }
    steal_ops_.fetch_add(1, std::memory_order_relaxed);
    stolen_.fetch_add(batch.size(), std::memory_order_relaxed);
    trace::instant(trace::Cat::kTask, "steal",
                   static_cast<std::int64_t>(batch.size()),
                   static_cast<std::int64_t>(v));
    // Execute the oldest; the rest go to the thief's own deque. Their
    // pending_ count carries over — only the executed task leaves the
    // queued state here.
    out = std::move(batch.front());
    pending_.fetch_sub(1, std::memory_order_release);
    if (batch.size() > 1) {
      Slot& own = *slots_[static_cast<std::size_t>(slot)];
      std::lock_guard<std::mutex> lk(own.mu);
      for (std::size_t i = 1; i < batch.size(); ++i)
        own.q.push_back(std::move(batch[i]));
    }
    return true;
  }
  return false;
}

void TaskScheduler::run(Task& t) {
  trace::Span span(trace::Cat::kTask, "task-run",
                   static_cast<std::int64_t>(t.index));
  try {
    t.fn();
  } catch (...) {
    t.scope->record_error(t.index);
  }
  t.scope->finished();
}

void TaskScheduler::serve(int slot) {
  Bind bind(this, slot);
  for (;;) {
    Task t;  // per iteration: a finished task's closure is not kept idle
    if (try_acquire(slot, t)) {
      run(t);
      continue;
    }
    std::unique_lock<std::mutex> lk(sleep_mu_);
    sleep_cv_.wait(lk, [&] { return stop_ || has_pending(); });
    if (stop_) return;
  }
}

void TaskScheduler::stop() {
  {
    std::lock_guard<std::mutex> lk(sleep_mu_);
    stop_ = true;
  }
  sleep_cv_.notify_all();
}

void TaskScheduler::notify_progress() {
  // Empty critical section: any thread between its predicate check and
  // the wait is forced to observe the state change.
  { std::lock_guard<std::mutex> lk(sleep_mu_); }
  sleep_cv_.notify_all();
}

TaskStats TaskScheduler::stats() const {
  TaskStats s;
  s.spawned = spawned_.load(std::memory_order_relaxed);
  s.inlined = inlined_.load(std::memory_order_relaxed);
  s.stolen = stolen_.load(std::memory_order_relaxed);
  s.steal_ops = steal_ops_.load(std::memory_order_relaxed);
  s.join_waits = join_waits_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumForkPhases; ++i) {
    s.phase[i].spawned = phase_[i].spawned.load(std::memory_order_relaxed);
    s.phase[i].inlined = phase_[i].inlined.load(std::memory_order_relaxed);
    s.phase[i].join_waits =
        phase_[i].join_waits.load(std::memory_order_relaxed);
    s.phase[i].park_ns = phase_[i].park_ns.load(std::memory_order_relaxed);
  }
  return s;
}

void TaskScheduler::reset_stats() {
  spawned_.store(0, std::memory_order_relaxed);
  inlined_.store(0, std::memory_order_relaxed);
  stolen_.store(0, std::memory_order_relaxed);
  steal_ops_.store(0, std::memory_order_relaxed);
  join_waits_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumForkPhases; ++i) {
    phase_[i].spawned.store(0, std::memory_order_relaxed);
    phase_[i].inlined.store(0, std::memory_order_relaxed);
    phase_[i].join_waits.store(0, std::memory_order_relaxed);
    phase_[i].park_ns.store(0, std::memory_order_relaxed);
  }
}

TaskScope::TaskScope(ForkPhase phase)
    : sched_(TaskScheduler::current()),
      slot_(TaskScheduler::current_slot()),
      phase_(phase) {}

TaskScope::~TaskScope() {
  if (!joined_) {
    try {
      join();
    } catch (...) {
      // The caller skipped join(); its error contract is already void.
    }
  }
}

void TaskScope::record_error(std::size_t index) {
  std::lock_guard<std::mutex> lk(emu_);
  if (!error_ || index < error_index_) {
    error_ = std::current_exception();
    error_index_ = index;
  }
}

void TaskScope::finished() {
  // The releasing decrement can let join() return and destroy the scope
  // (a stack object in the forking frame) before this thread runs
  // another instruction, so no scope member may be touched after it:
  // copy the scheduler pointer out first. The scheduler is owned by the
  // Pool and outlives every task.
  TaskScheduler* s = sched_;
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (s != nullptr) s->notify_progress();
  }
}

void TaskScope::fork(std::function<void()> fn) {
  std::size_t index = next_index_++;
  joined_ = false;
  if (sched_ == nullptr || !sched_->parallel()) {
    // Sequential reference path: inline, immediately, in fork order.
    if (sched_ != nullptr) {
      sched_->inlined_.fetch_add(1, std::memory_order_relaxed);
      sched_->phase_[static_cast<std::size_t>(phase_)].inlined.fetch_add(
          1, std::memory_order_relaxed);
    }
    try {
      fn();
    } catch (...) {
      record_error(index);
    }
    return;
  }
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  sched_->spawned_.fetch_add(1, std::memory_order_relaxed);
  sched_->phase_[static_cast<std::size_t>(phase_)].spawned.fetch_add(
      1, std::memory_order_relaxed);
  trace::instant(trace::Cat::kTask, "fork", static_cast<std::int64_t>(index));
  sched_->push(slot_, TaskScheduler::Task{std::move(fn), this, index});
}

void TaskScope::join() {
  if (sched_ != nullptr) {
    bool waited = false;
    std::uint64_t park_ns = 0;
    TaskScheduler::Task t;
    while (outstanding_.load(std::memory_order_acquire) != 0) {
      if (sched_->try_acquire(slot_, t)) {
        TaskScheduler::run(t);  // help: ours or anyone's
        continue;
      }
      // No runnable work anywhere: the remaining forks are executing on
      // other threads. Park until one finishes or new work appears
      // (a running task may fork).
      std::unique_lock<std::mutex> lk(sched_->sleep_mu_);
      if (outstanding_.load(std::memory_order_acquire) == 0) break;
      if (!sched_->has_pending()) {
        waited = true;
        trace::Span park(trace::Cat::kTask, "join-park");
        const auto t0 = std::chrono::steady_clock::now();
        sched_->sleep_cv_.wait(lk, [&] {
          return outstanding_.load(std::memory_order_acquire) == 0 ||
                 sched_->has_pending();
        });
        park_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      }
    }
    if (waited) {
      sched_->join_waits_.fetch_add(1, std::memory_order_relaxed);
      auto& pc = sched_->phase_[static_cast<std::size_t>(phase_)];
      pc.join_waits.fetch_add(1, std::memory_order_relaxed);
      pc.park_ns.fetch_add(park_ns, std::memory_order_relaxed);
    }
  }
  joined_ = true;
  std::lock_guard<std::mutex> lk(emu_);
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace bsmp::engine
