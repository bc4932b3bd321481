// Typed PlanCache entries for the scheduler: memoized whole-computation
// plans (sched::Planner output). The plan for a stencil depends only on
// the geometry (extents, horizon, m) and the planner configuration —
// not on the access function it is later costed under — so one cached
// plan serves every machine in a technology sweep via
// Schedule::cost_under.
#pragma once

#include <memory>

#include "engine/plan_cache.hpp"
#include "geom/lattice.hpp"
#include "sched/planner.hpp"

namespace bsmp::engine {

/// Key of a whole-computation plan for `st` under `cfg`.
template <int D>
PlanKey plan_key(const geom::Stencil<D>& st,
                 const sched::PlannerConfig<D>& cfg) {
  PlanKey key;
  key.d = D;
  key.family = PlanFamily::kSchedule;
  key.width = st.extent[0];
  key.horizon = st.horizon;
  key.m = st.m;
  std::uint64_t aux = 0;
  for (int i = 1; i < D; ++i)
    aux = key_fold(aux, static_cast<std::uint64_t>(st.extent[i]));
  aux = key_fold(aux, static_cast<std::uint64_t>(cfg.tile_width));
  aux = key_fold(aux, static_cast<std::uint64_t>(cfg.leaf_width));
  aux = key_fold(aux, key_of_double(cfg.space_const));
  aux = key_fold(aux, key_of_double(cfg.leaf_space_const));
  aux = key_fold(aux, key_of_double(cfg.machine_scale));
  key.aux = aux;
  return key;
}

/// The memoized Planner output for (stencil, config). `st` must stay
/// alive for the duration of the call only; the returned schedule is
/// self-contained and immutable.
template <int D>
std::shared_ptr<const sched::Schedule<D>> cached_plan(
    PlanCache& cache, const geom::Stencil<D>& st,
    const sched::PlannerConfig<D>& cfg) {
  return cache.get_or_build<sched::Schedule<D>>(plan_key(st, cfg), [&] {
    return sched::Planner<D>(&st, cfg).plan();
  });
}

}  // namespace bsmp::engine
