// Planner: emits the Schedule IR for the uniprocessor divide-and-
// conquer simulation (Theorems 2/3/5) — the same recursion as
// sep::Executor, but producing operations instead of charging costs.
// By construction, cost_under(host access fn) of the emitted schedule
// equals the Executor's charged time exactly; a test pins that down.
#pragma once

#include "core/expect.hpp"
#include "geom/tiling.hpp"
#include "sched/schedule.hpp"
#include "sep/executor.hpp"

namespace bsmp::sched {

template <int D>
struct PlannerConfig {
  std::int64_t tile_width = 1;
  std::int64_t leaf_width = 1;
  double space_const = 6.0;
  double leaf_space_const = 2.0;
  /// Address scale of the machine-level tile handoffs (total memory).
  double machine_scale = 1.0;
};

template <int D>
class Planner {
 public:
  Planner(const geom::Stencil<D>* st, PlannerConfig<D> cfg)
      : st_(st), cfg_(cfg) {
    BSMP_REQUIRE(st != nullptr);
    BSMP_REQUIRE(cfg.tile_width >= 1 && cfg.leaf_width >= 1);
  }

  double space_bound(std::int64_t width) const {
    double w = static_cast<double>(width);
    double depth = static_cast<double>(
        std::min<std::int64_t>(st_->reach(), width));
    double s = cfg_.space_const * depth;
    for (int i = 0; i < D; ++i) s *= w;
    return s + 8.0;
  }

  double leaf_space_bound(std::int64_t width) const {
    double w = static_cast<double>(width);
    double depth = static_cast<double>(
        std::min<std::int64_t>(st_->reach(), width));
    double s = cfg_.leaf_space_const * depth;
    for (int i = 0; i < D; ++i) s *= w;
    return s + 8.0;
  }

  /// Plan the whole computation: wavefront tiles, recursive splits,
  /// leaf executions — one op stream in a valid execution order.
  Schedule<D> plan() const {
    Schedule<D> sched;
    geom::TileGrid<D> grid(st_, cfg_.tile_width);
    for (const auto& wave : grid.wavefronts()) {
      for (const auto& tile : wave) {
        emit_copy(sched, OpKind::kCopyIn, tile.preboundary_count(),
                  cfg_.machine_scale);
        plan_region(sched, tile);
        emit_copy(sched, OpKind::kCopyOut, tile.outset_count(),
                  cfg_.machine_scale);
      }
    }
    return sched;
  }

  /// Plan one convex domain (the recursion of Proposition 2 without
  /// the machine-level handoffs). Public so parallel planners can emit
  /// per-subtile plans (Regime 2 of Theorem 4).
  void plan_region(Schedule<D>& sched, const geom::Region<D>& u) const {
    if (u.width() <= cfg_.leaf_width) {
      Op<D> op;
      op.kind = OpKind::kLeaf;
      op.leaf_lo = u.lo();
      op.leaf_hi = u.hi();
      op.addr_scale = leaf_space_bound(u.width());
      sched.push(op);
      return;
    }
    const double scale = space_bound(u.width());
    for (const geom::Region<D>& child : u.split()) {
      emit_copy(sched, OpKind::kCopyIn, child.preboundary_count(), scale);
      plan_region(sched, child);
      emit_copy(sched, OpKind::kCopyOut, child.outset_count(), scale);
    }
  }

 private:
  void emit_copy(Schedule<D>& sched, OpKind kind, std::int64_t words,
                 double scale) const {
    if (words == 0) return;
    Op<D> op;
    op.kind = kind;
    op.words = words;
    op.addr_scale = scale;
    sched.push(op);
  }

  const geom::Stencil<D>* st_;
  PlannerConfig<D> cfg_;
};

}  // namespace bsmp::sched
