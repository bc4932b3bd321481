// Typed PlanCache entries above the sim layer: memoized guest
// computations (the sep::Executor input) and their reference runs.
// Sweep points that share a guest — a p sweep at fixed (n, T, m), an
// s-sweep at fixed everything — build it once and share the immutable
// object; the reference run, the single most repeated unit of work in
// the benches, is likewise built once per (extent, horizon, m, seed).
#pragma once

#include <memory>

#include "engine/plan_cache.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"

namespace bsmp::tables {

template <int D>
engine::PlanKey mix_guest_key(engine::PlanFamily family,
                              const std::array<std::int64_t, D>& extent,
                              std::int64_t horizon, std::int64_t m,
                              std::uint64_t seed) {
  engine::PlanKey key;
  key.d = D;
  key.family = family;
  key.width = extent[0];
  key.horizon = horizon;
  key.m = m;
  std::uint64_t aux = engine::key_fold(0, seed);
  for (int i = 1; i < D; ++i)
    aux = engine::key_fold(aux, static_cast<std::uint64_t>(extent[i]));
  key.aux = aux;
  return key;
}

/// The memoized mixing-workload guest for (extent, horizon, m, seed).
template <int D>
std::shared_ptr<const sep::Guest<D>> cached_mix_guest(
    engine::PlanCache& cache, const std::array<std::int64_t, D>& extent,
    std::int64_t horizon, std::int64_t m, std::uint64_t seed) {
  return cache.get_or_build<sep::Guest<D>>(
      mix_guest_key<D>(engine::PlanFamily::kGuest, extent, horizon, m, seed),
      [&] { return workload::make_mix_guest<D>(extent, horizon, m, seed); });
}

/// The memoized direct run of that guest (the equivalence oracle).
template <int D>
std::shared_ptr<const sim::SimResult<D>> cached_reference(
    engine::PlanCache& cache, const std::array<std::int64_t, D>& extent,
    std::int64_t horizon, std::int64_t m, std::uint64_t seed) {
  return cache.get_or_build<sim::SimResult<D>>(
      mix_guest_key<D>(engine::PlanFamily::kReference, extent, horizon, m,
                       seed),
      [&] {
        auto g = cached_mix_guest<D>(cache, extent, horizon, m, seed);
        return sim::reference_run<D>(*g);
      });
}

}  // namespace bsmp::tables
