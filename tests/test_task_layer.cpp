// Unit tests for the fork-join task layer (engine/task.hpp) and
// Pool::parallel_for, which is fork/join on it: nested calls (the
// former "must not be nested" deadlock), empty ranges, one outside
// caller at a time, single-thread inline ordering (the sequential
// reference execution), exception contracts, the TaskStats counters,
// and that the simulators never fork into the layer.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/expect.hpp"

#include "engine/metrics.hpp"
#include "engine/pool.hpp"
#include "engine/sweep.hpp"
#include "engine/task.hpp"
#include "machine/spec.hpp"
#include "sep/staging.hpp"
#include "sim/dc_uniproc.hpp"
#include "sim/multiproc.hpp"
#include "workload/rules.hpp"

using namespace bsmp;

// ---------------------------------------------------------------------
// parallel_for edge cases.
// ---------------------------------------------------------------------

TEST(PoolEdgeCases, EmptyRangeRunsNothingAndReturns) {
  for (int threads : {1, 4}) {
    engine::Pool pool(threads);
    std::atomic<int> calls{0};
    pool.parallel_for(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0) << "threads=" << threads;
    // The pool must stay usable afterwards.
    pool.parallel_for(3, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 3) << "threads=" << threads;
  }
}

TEST(PoolEdgeCases, NestedParallelForNoDeadlock) {
  engine::Pool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { ++calls; });
  });
  EXPECT_EQ(calls.load(), 64);
}

TEST(PoolEdgeCases, TriplyNestedParallelForNoDeadlock) {
  engine::Pool pool(3);
  std::atomic<int> calls{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { ++calls; });
    });
  });
  EXPECT_EQ(calls.load(), 64);
}

TEST(PoolEdgeCases, NestedParallelForOnSingleThreadPool) {
  engine::Pool pool(1);
  std::atomic<int> calls{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { ++calls; });
  });
  EXPECT_EQ(calls.load(), 16);
}

TEST(PoolEdgeCases, NestedParallelForRethrowsLowestIndex) {
  engine::Pool pool(4);
  std::atomic<int> calls{0};
  auto inner = [&](std::size_t i) {
    ++calls;
    if (i == 2 || i == 5)
      throw std::runtime_error("inner " + std::to_string(i));
  };
  pool.parallel_for(2, [&](std::size_t outer) {
    if (outer == 0) {
      EXPECT_THROW(
          {
            try {
              pool.parallel_for(8, inner);
            } catch (const std::runtime_error& e) {
              EXPECT_STREQ(e.what(), "inner 2");
              throw;
            }
          },
          std::runtime_error);
    } else {
      pool.parallel_for(8, [&](std::size_t) { ++calls; });
    }
  });
  // Every inner index ran despite the failures (same contract as the
  // top-level parallel_for).
  EXPECT_EQ(calls.load(), 16);
}

namespace {

/// Spin (yielding) until `flag` is set or `limit` passes; false on
/// timeout. Bounded, so a broken contract fails the test instead of
/// hanging it.
bool wait_for(const std::atomic<bool>& flag, std::chrono::seconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

TEST(PoolEdgeCases, SecondOutsideCallerThrowsWhileFirstRuns) {
  // Two threads outside the pool call parallel_for on it at once. The
  // first holds slot 0 for its whole call; the second must fail fast
  // with precondition_error and run none of its body, and the first
  // must still rethrow its own lowest-index exception.
  engine::Pool pool(4);
  std::atomic<bool> first_inside{false};
  std::atomic<bool> second_done{false};
  std::atomic<int> first_ran{0};
  std::exception_ptr first_err;
  std::thread first([&] {
    try {
      pool.parallel_for(4, [&](std::size_t i) {
        ++first_ran;
        first_inside = true;
        if (i == 0) {
          // Hold the call open until the second caller has returned.
          wait_for(second_done, std::chrono::seconds(5));
          throw std::runtime_error("first 0");
        }
        if (i == 2) throw std::runtime_error("first 2");
      });
    } catch (...) {
      first_err = std::current_exception();
    }
  });
  ASSERT_TRUE(wait_for(first_inside, std::chrono::seconds(5)));
  std::atomic<int> second_ran{0};
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t i) {
                                   ++second_ran;
                                   if (i == 0)
                                     throw std::runtime_error("second 0");
                                 }),
               precondition_error);
  const auto waited = std::chrono::steady_clock::now() - t0;
  second_done = true;
  first.join();
  EXPECT_EQ(second_ran.load(), 0);
  EXPECT_LT(waited, std::chrono::seconds(1)) << "the second call must not "
                                                "wait for the first";
  EXPECT_EQ(first_ran.load(), 4);
  ASSERT_TRUE(first_err);
  try {
    std::rethrow_exception(first_err);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first 0");
  } catch (...) {
    ADD_FAILURE() << "the first caller rethrew a foreign exception";
  }
}

// ---------------------------------------------------------------------
// TaskScope: the sequential reference path.
// ---------------------------------------------------------------------

TEST(TaskScope, UnboundForksRunInlineInForkOrder) {
  ASSERT_EQ(engine::TaskScheduler::current(), nullptr);
  std::vector<int> order;
  engine::TaskScope scope;
  EXPECT_FALSE(scope.parallel());
  for (int i = 0; i < 10; ++i) {
    scope.fork([&order, i] { order.push_back(i); });
    // Inline means *immediately*: the task has already run.
    ASSERT_EQ(static_cast<int>(order.size()), i + 1);
  }
  scope.join();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TaskScope, SingleThreadPoolForksRunInlineInForkOrder) {
  // Pool(1) with fork-join active: the scheduler exists but has one
  // slot, so forks still run inline in exact fork order — the
  // subtree-order guarantee the conformance contract leans on.
  engine::Pool pool(1);
  auto bind = pool.bind_caller();
  ASSERT_NE(engine::TaskScheduler::current(), nullptr);
  std::vector<int> order;
  engine::TaskScope scope;
  EXPECT_FALSE(scope.parallel());
  for (int i = 0; i < 10; ++i) scope.fork([&order, i] { order.push_back(i); });
  scope.join();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(pool.task_stats().spawned, 0u);
  EXPECT_EQ(pool.task_stats().inlined, 10u);
}

// ---------------------------------------------------------------------
// TaskScope: the parallel path.
// ---------------------------------------------------------------------

TEST(TaskScope, ParallelForksAllExecute) {
  engine::Pool pool(4);
  auto bind = pool.bind_caller();
  std::atomic<int> calls{0};
  engine::TaskScope scope;
  EXPECT_TRUE(scope.parallel());
  for (int i = 0; i < 100; ++i) scope.fork([&calls] { ++calls; });
  scope.join();
  EXPECT_EQ(calls.load(), 100);
  EXPECT_EQ(pool.task_stats().spawned, 100u);
}

TEST(TaskScope, NestedScopesOnSameScheduler) {
  engine::Pool pool(4);
  auto bind = pool.bind_caller();
  std::atomic<int> calls{0};
  engine::TaskScope outer;
  for (int i = 0; i < 4; ++i) {
    outer.fork([&calls] {
      engine::TaskScope inner;
      for (int j = 0; j < 4; ++j) inner.fork([&calls] { ++calls; });
      inner.join();
    });
  }
  outer.join();
  EXPECT_EQ(calls.load(), 16);
}

TEST(TaskScope, JoinRethrowsLowestForkIndex) {
  engine::Pool pool(4);
  auto bind = pool.bind_caller();
  std::atomic<int> calls{0};
  engine::TaskScope scope;
  for (int i = 0; i < 8; ++i) {
    scope.fork([&calls, i] {
      ++calls;
      if (i == 1 || i == 3 || i == 5)
        throw std::runtime_error("fork " + std::to_string(i));
    });
  }
  EXPECT_THROW(
      {
        try {
          scope.join();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "fork 1");
          throw;
        }
      },
      std::runtime_error);
  EXPECT_EQ(calls.load(), 8);
}

TEST(TaskScope, DestructorJoinsWithoutRethrow) {
  engine::Pool pool(4);
  auto bind = pool.bind_caller();
  std::atomic<int> calls{0};
  {
    engine::TaskScope scope;
    for (int i = 0; i < 16; ++i) {
      scope.fork([&calls] {
        ++calls;
        throw std::runtime_error("swallowed");
      });
    }
    // No explicit join: the destructor must wait for all forks and
    // swallow the captured exception.
  }
  EXPECT_EQ(calls.load(), 16);
}

TEST(TaskStatsCounters, ResetAndAccumulate) {
  engine::Pool pool(2);
  {
    auto bind = pool.bind_caller();
    engine::TaskScope scope;
    for (int i = 0; i < 32; ++i) scope.fork([] {});
    scope.join();
  }
  engine::TaskStats s = pool.task_stats();
  EXPECT_EQ(s.spawned, 32u);
  pool.reset_task_stats();
  s = pool.task_stats();
  EXPECT_EQ(s.spawned, 0u);
  EXPECT_EQ(s.inlined, 0u);
  EXPECT_EQ(s.stolen, 0u);
  EXPECT_EQ(s.steal_ops, 0u);
  EXPECT_EQ(s.join_waits, 0u);
  EXPECT_EQ(s.park_ns, 0u);
}

TEST(TaskStatsCounters, ParallelForIndicesAreTasks) {
  // parallel_for forks one task per index: on a multi-slot pool every
  // index is spawned, on Pool(1) every index runs inline.
  {
    engine::Pool pool(4);
    pool.parallel_for(10, [](std::size_t) {});
    EXPECT_EQ(pool.task_stats().spawned, 10u);
    EXPECT_EQ(pool.task_stats().inlined, 0u);
  }
  {
    engine::Pool pool(1);
    pool.parallel_for(10, [](std::size_t) {});
    EXPECT_EQ(pool.task_stats().spawned, 0u);
    EXPECT_EQ(pool.task_stats().inlined, 10u);
  }
  // A sweep's per-sweep `tasks` delta therefore counts its points.
  for (int threads : {1, 4}) {
    engine::Pool pool(threads);
    engine::Metrics sink;
    engine::SweepOptions opt;
    opt.metrics = &sink;
    std::vector<int> points{1, 2, 3, 4, 5, 6, 7};
    (void)engine::sweep_map<int>(
        pool, points, [](int p, engine::SweepContext&) { return p; }, opt);
    const auto sweeps = sink.snapshot();
    ASSERT_EQ(sweeps.size(), 1u);
    const engine::TaskStats& t = sweeps[0].tasks;
    EXPECT_EQ(t.spawned + t.inlined, points.size()) << "threads=" << threads;
    EXPECT_EQ(threads == 1 ? t.inlined : t.spawned, points.size())
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------
// The simulators never fork: a simulator call runs on the thread that
// makes it, so with a 4-slot pool bound it spawns and inlines no task
// and charges the same bits as without one. The configs are the
// benchmark's multiproc scaling mix (its d=1 guest scaled from n=1024
// to 256, with s=8 so regime 1 still bisects) plus one dc_uniproc
// call, run with the grain settings the benchmark passes.
// ---------------------------------------------------------------------

namespace {

struct Charged {
  std::array<std::uint64_t, core::CostLedger::kNumKinds> cost_bits{};
  std::array<std::uint64_t, core::CostLedger::kNumKinds> events{};
  std::uint64_t time_bits = 0;
  std::int64_t vertices = 0;

  bool operator==(const Charged&) const = default;
};

template <int D>
Charged charged(const sim::SimResult<D>& r) {
  Charged c;
  for (std::size_t i = 0; i < core::CostLedger::kNumKinds; ++i) {
    const auto kind = static_cast<core::CostKind>(i);
    const double cost = r.ledger.cost(kind);
    std::memcpy(&c.cost_bits[i], &cost, sizeof cost);
    c.events[i] = r.ledger.events(kind);
  }
  std::memcpy(&c.time_bits, &r.time, sizeof r.time);
  c.vertices = r.vertices;
  return c;
}

template <int D>
Charged multiproc(const sep::Guest<D>& g, const machine::MachineSpec& host,
                  std::int64_t s, std::int64_t reloc_grain) {
  sim::MultiprocConfig cfg;
  cfg.s = s;
  cfg.reloc_grain = reloc_grain;
  cfg.wave_grain = 2;
  return charged<D>(sim::simulate_multiproc<D>(g, host, cfg));
}

}  // namespace

TEST(SimulatorTasks, SimulatorsNeverFork) {
  sep::set_default_parallel_grain(16);
  const auto d1 = workload::make_mix_guest<1>({256}, 256, 2, 11);
  const auto d2 = workload::make_mix_guest<2>({32, 32}, 32, 1, 12);
  const auto dc = workload::make_mix_guest<1>({128}, 128, 1, 13);
  auto run_all = [&] {
    return std::vector<Charged>{
        multiproc<1>(d1, machine::MachineSpec{1, 256, 16, 2}, 8, 64),
        multiproc<2>(d2, machine::MachineSpec{2, 1024, 16, 1}, 4, 4),
        charged<1>(sim::simulate_dc_uniproc<1>(
            dc, machine::MachineSpec{1, 128, 1, 1})),
    };
  };
  const std::vector<Charged> serial = run_all();

  engine::Pool pool(4);
  auto bind = pool.bind_caller();
  pool.reset_task_stats();
  const std::vector<Charged> pooled = run_all();
  const engine::TaskStats s = pool.task_stats();
  EXPECT_EQ(s.spawned + s.inlined, 0u);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_TRUE(pooled[i] == serial[i]) << "call " << i;
  sep::set_default_parallel_grain(0);
}

// ---------------------------------------------------------------------
// Slot binding exclusivity: a deque slot has one owner at a time.
// ---------------------------------------------------------------------

TEST(TaskSchedulerBind, SecondThreadBindingHeldSlotThrows) {
  engine::Pool pool(2);
  auto bind = pool.bind_caller();
  std::exception_ptr err;
  std::thread t([&] {
    try {
      auto second = pool.bind_caller();  // slot 0 is held by the main thread
    } catch (...) {
      err = std::current_exception();
    }
  });
  t.join();
  ASSERT_TRUE(err) << "concurrent bind of a held slot must fail fast";
  EXPECT_THROW(std::rethrow_exception(err), precondition_error);
}

TEST(TaskSchedulerBind, SameThreadRebindAllowedAndReleaseFreesSlot) {
  engine::Pool pool(2);
  {
    auto outer = pool.bind_caller();
    auto inner = pool.bind_caller();  // nested rebinding on one thread is fine
    engine::TaskScope scope;
    std::atomic<int> calls{0};
    for (int i = 0; i < 8; ++i) scope.fork([&calls] { ++calls; });
    scope.join();
    EXPECT_EQ(calls.load(), 8);
  }
  // Both bindings released: another thread may now take the slot.
  std::exception_ptr err;
  std::thread t([&] {
    try {
      auto bind = pool.bind_caller();
    } catch (...) {
      err = std::current_exception();
    }
  });
  t.join();
  EXPECT_FALSE(err);
}
