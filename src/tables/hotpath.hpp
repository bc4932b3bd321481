// The hot-path perf artifact ("hot" in the emitter registry): run the
// full space-time volume of a guest through the topological-separator
// executor in the same process —
//
//   * dense:   the flat-staging executor of sep/executor.hpp with a
//              StagingStore<D> (O(1) window addressing, count-based
//              charging, batched leaf charges). The emitter runs it
//              twice: on the guest with its rule behind a
//              sep::FunctionKernel (the `dense` row, one std::function
//              call per vertex) and on the guest's own kernel (the
//              `simd` row, SIMD leaf rows when sep::simd::enabled());
//   * hashmap: HashMapExecutor below, a line-for-line retention of the
//              pre-flat-staging executor (hash-map staging for every
//              value including the leaf interior, materialized
//              preboundary/out-set vectors at every recursion level,
//              two ledger charges per vertex) — the measured baseline.
//
// All are driven through the same tile wavefronts as
// sim::simulate_dc_uniproc, and all must agree exactly on vertices,
// charged totals, peak staging, and every final value (asserted by the
// emitter) — only the wall clock may differ. The deterministic fields
// go into the emitted table; the timings go to engine::Metrics and
// are serialized as metrics_hot.json / BENCH_exec_hotpath.json.
#pragma once

#include <chrono>
#include <type_traits>
#include <vector>

#include "core/cost.hpp"
#include "core/expect.hpp"
#include "geom/tiling.hpp"
#include "sep/executor.hpp"
#include "sep/guest.hpp"
#include "sep/staging.hpp"
#include "sim/dc_uniproc.hpp"

namespace bsmp::tables::hotpath {

/// What one full-volume execution reports. The wall clock is the only
/// field allowed to differ between the dense and hashmap runs.
struct ExecStats {
  std::int64_t vertices = 0;
  double seconds = 0;
  std::size_t peak_staging_words = 0;
  std::size_t staging_allocs = 0;     ///< dense level slabs; 0 for hashmap
  core::Cost total_cost = 0;          ///< ledger total (all cost kinds)
  std::int64_t row_leaves = 0;        ///< leaves on the SIMD row path
  double vertices_per_sec() const {
    return seconds > 0 ? static_cast<double>(vertices) / seconds : 0.0;
  }
};

/// The pre-flat-staging executor, kept as the baseline the "hot"
/// artifact measures against: ValueMap staging throughout (the leaf
/// interior lives in a per-leaf hash map), preboundary/out-set point
/// vectors materialized at every recursion level, and one kCompute plus
/// one kLocalAccess charge per vertex. Vertices are evaluated by the
/// shared sep::eval_vertex. Its charges are bit-identical to
/// sep::Executor's batched ones by construction.
template <int D>
class HashMapExecutor {
 public:
  HashMapExecutor(const sep::Guest<D>* guest, sep::ExecutorConfig cfg)
      : guest_(guest), cfg_(cfg) {
    BSMP_REQUIRE(guest != nullptr);
    BSMP_REQUIRE(cfg_.leaf_width >= 1);
  }

  void set_ledger(core::CostLedger* ledger) { ledger_ = ledger; }

  double space_bound(std::int64_t width) const {
    double w = static_cast<double>(width);
    double depth = static_cast<double>(
        std::min<std::int64_t>(guest_->stencil.reach(), width));
    double s = cfg_.space_const * depth;
    for (int i = 0; i < D; ++i) s *= w;
    return s + 8.0;
  }

  double leaf_space_bound(std::int64_t width) const {
    double w = static_cast<double>(width);
    double depth = static_cast<double>(
        std::min<std::int64_t>(guest_->stencil.reach(), width));
    double s = cfg_.leaf_space_const * depth;
    for (int i = 0; i < D; ++i) s *= w;
    return s + 8.0;
  }

  std::vector<geom::Point<D>> execute(const geom::Region<D>& U,
                                      sep::ValueMap<D>& staging) {
    BSMP_REQUIRE(ledger_ != nullptr);
    return guest_->rule.visit(
        [&](const auto& rule) { return execute_on(U, staging, rule); });
  }

  std::int64_t vertices_executed() const { return vertices_; }
  std::size_t peak_staging() const { return peak_staging_; }

 private:
  /// execute() on the guest's concrete rule kernel.
  template <class RuleFn>
  std::vector<geom::Point<D>> execute_on(const geom::Region<D>& U,
                                         sep::ValueMap<D>& staging,
                                         const RuleFn& rule) {
    std::vector<geom::Point<D>> out;
    if (U.width() <= cfg_.leaf_width) {
      execute_leaf(U, staging, out, rule);
      note_staging(staging);
      return out;
    }

    const core::Cost fS =
        cfg_.f(static_cast<std::uint64_t>(space_bound(U.width())));
    std::vector<geom::Point<D>> produced;
    for (const geom::Region<D>& child : U.split()) {
      std::vector<geom::Point<D>> gin = child.preboundary();
      for (const auto& q : gin) {
        BSMP_ASSERT_MSG(staging.contains(q),
                        "preboundary value missing: topological partition "
                        "violated at width "
                            << U.width());
      }
      ledger_->charge(core::CostKind::kBlockMove,
                      2.0 * fS * static_cast<core::Cost>(gin.size()),
                      gin.size());
      std::vector<geom::Point<D>> child_out =
          execute_on(child, staging, rule);
      ledger_->charge(core::CostKind::kBlockMove,
                      2.0 * fS * static_cast<core::Cost>(child_out.size()),
                      child_out.size());
      produced.insert(produced.end(), child_out.begin(), child_out.end());
    }

    out = U.outset();
    sep::ValueMap<D> keep;
    keep.reserve(out.size() * 2);
    for (const auto& q : out) keep.emplace(q, 0);
    for (const auto& q : produced) {
      if (!keep.contains(q)) staging.erase(q);
    }
    note_staging(staging);
    return out;
  }

  void note_staging(const sep::ValueMap<D>& staging) {
    if (staging.size() > peak_staging_) peak_staging_ = staging.size();
  }

  template <class RuleFn>
  void execute_leaf(const geom::Region<D>& U, sep::ValueMap<D>& staging,
                    std::vector<geom::Point<D>>& out, const RuleFn& rule) {
    const core::Cost f_leaf =
        cfg_.f(static_cast<std::uint64_t>(leaf_space_bound(U.width())));
    sep::ValueMap<D> local;

    auto lookup = [&](const geom::Point<D>& q) -> sep::Word {
      auto it = local.find(q);
      if (it != local.end()) return it->second;
      auto is = staging.find(q);
      BSMP_ASSERT_MSG(is != staging.end(),
                      "operand missing at leaf: topological partition or "
                      "out-set computation is wrong");
      return is->second;
    };

    U.for_each([&](const geom::Point<D>& p) {
      const auto [value, operands] =
          sep::eval_vertex(*guest_, rule, p, lookup);
      local.emplace(p, value);
      ++vertices_;
      ledger_->charge(core::CostKind::kCompute, 1.0);
      ledger_->charge(core::CostKind::kLocalAccess,
                      static_cast<core::Cost>(operands + 1) * f_leaf,
                      static_cast<std::uint64_t>(operands + 1));
    });

    out = U.outset();
    for (const auto& q : out) {
      auto it = local.find(q);
      BSMP_ASSERT_MSG(it != local.end(), "out-set point not executed");
      staging.emplace(q, it->second);
    }
  }

  const sep::Guest<D>* guest_;
  sep::ExecutorConfig cfg_;
  core::CostLedger* ledger_ = nullptr;
  std::int64_t vertices_ = 0;
  std::size_t peak_staging_ = 0;
};

/// HashMapExecutor's staging prune between wavefronts: the map form of
/// sim::detail::prune_staging (same staleness rule, point by point).
template <int D>
void prune_map_staging(const geom::Stencil<D>& st,
                       sep::ValueMap<D>& staging,
                       std::int64_t min_unexecuted_t) {
  engine::trace::Span span(engine::trace::Cat::kStaging, "staging-prune",
                           min_unexecuted_t);
  const std::int64_t dead_below = min_unexecuted_t - st.reach();
  const std::int64_t keep_from = st.horizon - st.m;
  for (auto it = staging.begin(); it != staging.end();) {
    if (it->first.t < dead_below && it->first.t < keep_from)
      it = staging.erase(it);
    else
      ++it;
  }
}

namespace detail {

template <int D, class V>
sep::ExecutorConfig exec_config(const sep::BasicGuest<D, V>& guest) {
  sep::ExecutorConfig ecfg;
  ecfg.leaf_width = guest.stencil.m;  // Theorem-3 executable diamonds
  ecfg.f = hram::AccessFn::unit();
  return ecfg;
}

/// Drive `exec` over the full space-time volume in the same tile
/// wavefronts sim::simulate_dc_uniproc uses, pruning staging between
/// wavefronts; `staging` (a StagingStore, or HashMapExecutor's map)
/// keeps the final values for comparison.
template <int D, class V, class Exec, class Store>
ExecStats drive(const sep::BasicGuest<D, V>& guest, Exec& exec,
                Store& staging) {
  constexpr bool kMap = std::is_same_v<Store, sep::ValueMap<D>>;
  const geom::Stencil<D>& st = guest.stencil;
  core::CostLedger ledger;
  exec.set_ledger(&ledger);

  geom::TileGrid<D> grid(&st, st.extent[0]);
  auto waves = grid.wavefronts();
  std::vector<std::int64_t> suffix_tmin(waves.size() + 1, st.horizon);
  for (std::size_t k = waves.size(); k-- > 0;) {
    std::int64_t mn = suffix_tmin[k + 1];
    for (const auto& tile : waves[k])
      mn = std::min(mn, tile.time_range().first);
    suffix_tmin[k] = mn;
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < waves.size(); ++k) {
    for (const auto& tile : waves[k]) exec.execute(tile, staging);
    if constexpr (kMap)
      prune_map_staging<D>(st, staging, suffix_tmin[k + 1]);
    else
      sim::detail::prune_staging<D>(st, staging, suffix_tmin[k + 1]);
  }
  ExecStats s;
  s.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  s.vertices = exec.vertices_executed();
  s.peak_staging_words = exec.peak_staging();
  if constexpr (!kMap) {
    s.staging_allocs = staging.level_allocs();
    s.row_leaves = exec.row_leaves();
  }
  s.total_cost = ledger.total();
  return s;
}

}  // namespace detail

/// Full-volume run through the flat-staging executor + StagingStore,
/// generic over the guest value type (Word or sep::LaneBatch).
template <int D, class V>
ExecStats run_dense(const sep::BasicGuest<D, V>& guest,
                    sep::StagingStore<D, V>& staging) {
  sep::Executor<D, V> exec(&guest, detail::exec_config(guest));
  return detail::drive(guest, exec, staging);
}

/// Full-volume run through the retained hash-map baseline.
template <int D>
ExecStats run_hashmap(const sep::Guest<D>& guest, sep::ValueMap<D>& staging) {
  HashMapExecutor<D> exec(&guest, detail::exec_config(guest));
  return detail::drive(guest, exec, staging);
}

}  // namespace bsmp::tables::hotpath
