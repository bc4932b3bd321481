// The sweep engine: evaluate a vector of sweep points across a Pool
// and merge the per-point rows back in *point order*, regardless of
// which thread finished which point first. Each point is one task of
// the pool's scheduler (Pool::parallel_for forks them in point order
// and joins), so forks made inside a point share the same workers.
//
// Determinism contract (locked down by tests/test_engine_determinism):
// for a fixed point vector, row function, and seed, run() returns the
// same rows — value- and byte-identical once rendered — for every pool
// size, because
//   * each point writes only its own result slot (merge order is the
//     point order by construction);
//   * the per-point RNG stream is derived from (seed, point index),
//     never from the executing thread or any global state;
//   * shared artifacts (plans, guests, reference runs) live in a
//     PlanCache behind shared_ptr-to-const and are built at most once
//     per key, so every point observes the same immutable object.
//
// The row function must be a pure function of (point, context): no
// writes to shared mutable state, no iteration-order dependence.
//
// Observability is strictly on the side: when SweepOptions::metrics is
// set, run() additionally records per-point wall clock / queue wait
// and the sweep's task-counter delta (its points plus their forks)
// into an engine::Metrics sink (see metrics.hpp) without touching the
// rows — timings vary run to run, tables never do.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/expect.hpp"
#include "core/rng.hpp"
#include "engine/metrics.hpp"
#include "engine/plan_cache.hpp"
#include "engine/pool.hpp"
#include "engine/trace.hpp"

namespace bsmp::engine {

/// Deterministic per-point generator: a SplitMix64 stream that depends
/// only on (sweep seed, point index) — pinned per point, not per
/// thread, so refactors of the execution order cannot silently reorder
/// RNG consumption.
inline core::SplitMix64 point_rng(std::uint64_t seed, std::size_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL *
                               (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return core::SplitMix64(z ^ (z >> 31));
}

struct SweepOptions {
  /// Base seed of the per-point RNG streams.
  std::uint64_t seed = 0;
  /// Shared memo for separator trees / Prop-2 plans / guests; may be
  /// null when the sweep needs no shared artifacts.
  PlanCache* plans = nullptr;
  /// Observability sink: when non-null, run() appends one SweepMetric
  /// (per-point wall clock + queue wait, whole-sweep wall clock, pool
  /// size). Purely observational — never affects the rows.
  Metrics* metrics = nullptr;
  /// Label stamped on the recorded SweepMetric (may stay empty).
  std::string label;
};

/// Per-point evaluation context handed to the row function.
struct SweepContext {
  std::size_t index = 0;       ///< the point's position in the sweep
  core::SplitMix64 rng;        ///< point_rng(seed, index)
  PlanCache* plans = nullptr;  ///< shared plan cache (may be null)
};

template <typename Point, typename Row>
class Sweep {
 public:
  Sweep() = default;
  explicit Sweep(std::vector<Point> points, SweepOptions opt = {})
      : points_(std::move(points)), opt_(opt) {}

  void add(Point p) { points_.push_back(std::move(p)); }

  std::size_t size() const { return points_.size(); }
  const std::vector<Point>& points() const { return points_; }

  /// Evaluate every point through `fn(const Point&, SweepContext&)`
  /// on `pool`, returning rows in point order. If any point throws,
  /// every point still runs and the lowest-index exception propagates.
  template <typename Fn>
  std::vector<Row> run(Pool& pool, Fn&& fn) const {
    using Clock = std::chrono::steady_clock;
    auto secs = [](Clock::duration d) {
      return std::chrono::duration<double>(d).count();
    };
    std::vector<std::optional<Row>> slots(points_.size());
    // Per-point timings land in the point's own slot — point order by
    // construction, like the result slots.
    std::vector<PointMetric> timings(opt_.metrics ? points_.size() : 0);
    // The sweep span carries the point count, never the pool size: the
    // deterministic span set must not vary across the thread-count
    // matrix the conformance suite runs.
    trace::Span sweep_span(trace::Cat::kSweepPoint, "sweep",
                           std::string_view(opt_.label),
                           static_cast<std::int64_t>(points_.size()), 0);
    const TaskStats tasks_before = pool.task_stats();
    const auto t_submit = Clock::now();
    pool.parallel_for(points_.size(), [&](std::size_t i) {
      trace::Span point_span(trace::Cat::kSweepPoint, "sweep-point",
                             static_cast<std::int64_t>(i),
                             static_cast<std::int64_t>(points_.size()));
      const auto t_start = Clock::now();
      SweepContext ctx{i, point_rng(opt_.seed, i), opt_.plans};
      slots[i].emplace(fn(points_[i], ctx));
      if (opt_.metrics) {
        timings[i] = {i, secs(t_start - t_submit),
                      secs(Clock::now() - t_start)};
      }
    });
    if (opt_.metrics) {
      SweepMetric sm;
      sm.label = opt_.label;
      sm.points = points_.size();
      sm.pool_threads = pool.size();
      sm.wall_s = secs(Clock::now() - t_submit);
      sm.tasks = pool.task_stats() - tasks_before;
      sm.per_point = std::move(timings);
      opt_.metrics->record(std::move(sm));
    }
    std::vector<Row> rows;
    rows.reserve(slots.size());
    for (auto& s : slots) {
      BSMP_ASSERT(s.has_value());
      rows.push_back(std::move(*s));
    }
    return rows;
  }

 private:
  std::vector<Point> points_;
  SweepOptions opt_;
};

/// One-shot convenience: sweep `points` through `fn` on `pool`.
template <typename Row, typename Point, typename Fn>
std::vector<Row> sweep_map(Pool& pool, const std::vector<Point>& points,
                           Fn&& fn, SweepOptions opt = {}) {
  return Sweep<Point, Row>(points, opt).run(pool, std::forward<Fn>(fn));
}

}  // namespace bsmp::engine
