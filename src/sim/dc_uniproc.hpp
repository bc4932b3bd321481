// Divide-and-conquer uniprocessor simulation — Theorems 2, 3 and 5.
//
// The space-time volume V of the guest computation is covered by
// full/truncated domains of monotone width `tile_width` (Figure 1 for
// d=1, Figure 4 for d=2), visited in wavefront order; each tile is
// executed by the topological-separator executor, recursing down to
// "executable diamonds" of width `leaf_width` (= m for Theorem 3,
// 1 for Theorems 2 and 5) that are run naively.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "core/expect.hpp"
#include "engine/metrics.hpp"
#include "engine/trace.hpp"
#include "geom/tiling.hpp"
#include "machine/spec.hpp"
#include "sep/executor.hpp"
#include "sep/staging.hpp"
#include "sim/observe.hpp"
#include "sim/result.hpp"

namespace bsmp::sim {

struct DcConfig {
  std::int64_t tile_width = 0;  ///< 0: use the guest's node side
  std::int64_t leaf_width = 0;  ///< 0: use m (Theorem 3's executable diamonds)
  double space_const = 6.0;
  /// Opt-in hot-path observability: when set, the simulator appends
  /// one HotPathMetric (vertices/sec, peak staging words, staging slab
  /// allocations) per run. Never affects charges or values.
  engine::Metrics* metrics = nullptr;
  std::string hot_label;  ///< label of the recorded section
  /// Scenario lanes carried per charged vertex (sep::kLanes for batched
  /// guests, 1 for scalar) — recorded into HotPathMetric::lanes so the
  /// metrics report can derive scenarios_per_sec.
  int hot_lanes = 1;
};

namespace detail {

/// Remove staged values that can no longer be read: everything below
/// `min_unexecuted_t - reach`, except the final rows kept for output.
/// Staleness is a pure function of t, so whole levels are dropped (and
/// their slabs released).
template <int D, class V>
void prune_staging(const geom::Stencil<D>& st,
                   sep::StagingStore<D, V>& staging,
                   std::int64_t min_unexecuted_t) {
  engine::trace::Span span(engine::trace::Cat::kStaging, "staging-prune",
                           min_unexecuted_t);
  staging.prune_below(min_unexecuted_t - st.reach(), st.horizon - st.m);
}

}  // namespace detail

template <int D, class V>
SimResult<D, V> simulate_dc_uniproc(const sep::BasicGuest<D, V>& guest,
                                    const machine::MachineSpec& host,
                                    DcConfig cfg = {}) {
  guest.validate();
  host.validate();
  const geom::Stencil<D>& st = guest.stencil;
  BSMP_REQUIRE_MSG(host.p == 1, "dc_uniproc requires a single processor");
  BSMP_REQUIRE_MSG(host.d == D, "host dimension mismatch");
  BSMP_REQUIRE_MSG(host.n == st.num_nodes(),
                   "host volume must equal guest node count");
  BSMP_REQUIRE_MSG(host.m >= st.m,
                   "the technology density m must cover the guest's "
                   "per-node memory m' (Section 6: m' < m gives more "
                   "locality)");

  std::int64_t node_side = host.node_side();
  std::int64_t tile_w = cfg.tile_width > 0 ? cfg.tile_width : node_side;
  std::int64_t leaf_w = cfg.leaf_width > 0 ? cfg.leaf_width : st.m;
  leaf_w = std::min(leaf_w, tile_w);

  sep::ExecutorConfig ecfg;
  ecfg.leaf_width = leaf_w;
  ecfg.f = host.access_fn();
  ecfg.space_const = cfg.space_const;
  sep::Executor<D, V> exec(&guest, ecfg);

  SimResult<D, V> res;
  exec.set_ledger(&res.ledger);
  const core::Cost f_top =
      ecfg.f(static_cast<std::uint64_t>(host.total_memory()));

  geom::TileGrid<D> grid(&st, tile_w);
  auto waves = grid.wavefronts();

  // Suffix minimum of tile t_min per wavefront, for staging pruning.
  std::vector<std::int64_t> suffix_tmin(waves.size() + 1, st.horizon);
  for (std::size_t k = waves.size(); k-- > 0;) {
    std::int64_t mn = suffix_tmin[k + 1];
    for (const auto& tile : waves[k])
      mn = std::min(mn, tile.time_range().first);
    suffix_tmin[k] = mn;
  }

  sep::StagingStore<D, V> staging(&st);
  const auto hot_t0 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < waves.size(); ++k) {
    for (const auto& tile : waves[k]) {
      engine::trace::Span tile_span(engine::trace::Cat::kSim, "dc-tile",
                                    tile.width(),
                                    static_cast<std::int64_t>(k));
      // Tile preboundary comes from machine-scale memory (Prop. 2 at
      // the top level of the recursion). One probe serves the tile's
      // counts and the recursion's root.
      typename geom::Region<D>::Probe probe = tile.probe();
      const std::int64_t gin = tile.preboundary_count(probe);
      if (ecfg.validate) sep::validate_preboundary_count(tile, gin);
      res.ledger.charge(core::CostKind::kBlockMove,
                        2.0 * f_top * static_cast<core::Cost>(gin),
                        static_cast<std::uint64_t>(gin));
      exec.execute(tile, probe, staging);
      const std::int64_t out = tile.outset_count(probe);
      if (ecfg.validate) sep::validate_outset_count(tile, out);
      res.ledger.charge(core::CostKind::kBlockMove,
                        2.0 * f_top * static_cast<core::Cost>(out),
                        static_cast<std::uint64_t>(out));
    }
    detail::prune_staging<D>(st, staging, suffix_tmin[k + 1]);
  }
  if (cfg.metrics != nullptr) {
    engine::HotPathMetric h;
    h.label = cfg.hot_label.empty() ? "dc_uniproc" : cfg.hot_label;
    h.vertices = exec.vertices_executed();
    h.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - hot_t0)
                    .count();
    h.peak_staging_words = exec.peak_staging();
    h.staging_allocs = staging.level_allocs();
    h.lanes = cfg.hot_lanes;
    cfg.metrics->record_hot(std::move(h));
  }

  res.vertices = exec.vertices_executed();
  res.row_leaves = exec.row_leaves();
  res.time = res.ledger.total();
  res.guest_time = static_cast<core::Cost>(st.horizon);
  res.final_values = extract_final<D>(st, staging);
  return res;
}

}  // namespace bsmp::sim
