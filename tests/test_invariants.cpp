// Cross-cutting invariants at sizes beyond the brute-force tests:
// space bounds in d=2, Definition-4 containment checked geometrically,
// wavefront dependency safety for d=2/3 grids, and assorted edge cases.
#include <gtest/gtest.h>

#include <unordered_set>

#include "dag/explicit_dag.hpp"
#include "geom/figures.hpp"
#include "geom/tiling.hpp"
#include "sep/executor.hpp"
#include "sim/dc_uniproc.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"

using namespace bsmp;
using geom::Point;
using geom::PointHash;
using geom::Region;
using geom::Stencil;

TEST(Invariants, PeakStagingWithinSpaceBound2D) {
  // The d=2 analogue of the d=1 space test: σ(|P|) = O(|P|^(2/3)).
  for (int64_t r : {8, 16, 24}) {
    auto g = workload::make_mix_guest<2>({64, 64}, 64, 1, 5);
    sep::ExecutorConfig cfg;
    cfg.leaf_width = 1;
    cfg.f = hram::AccessFn::hierarchical(2, 1.0);
    sep::Executor<2> exec(&g, cfg);
    core::CostLedger ledger;
    exec.set_ledger(&ledger);
    auto p = geom::make_octahedron(&g.stencil, 16, -16, 16, -16, r);
    ASSERT_FALSE(p.empty());
    sep::StagingStore<2> staging(&g.stencil);
    for (const auto& q : p.preboundary()) staging.insert(q, 1);
    exec.execute(p, staging);
    EXPECT_LE(static_cast<double>(exec.peak_staging()),
              exec.space_bound(r))
        << "r=" << r;
  }
}

TEST(Invariants, Definition4ContainmentGeometric) {
  // Γin(child_i) ⊆ Γin(U) ∪ (earlier children), checked with point
  // sets from the geometry alone — larger than the dag brute force
  // can afford.
  for (int64_t m : {1, 3}) {
    Stencil<1> st{{128}, 128, m};
    Region<1> d = geom::make_diamond(&st, 32, -32, 64);
    ASSERT_FALSE(d.empty());
    std::unordered_set<Point<1>, PointHash<1>> available;
    for (const auto& q : d.preboundary()) available.insert(q);
    for (const auto& child : d.split()) {
      for (const auto& q : child.preboundary())
        EXPECT_TRUE(available.contains(q)) << "m=" << m;
      child.for_each([&](const Point<1>& p) { available.insert(p); });
    }
  }
}

TEST(Invariants, Definition4ContainmentGeometric2D) {
  Stencil<2> st{{64, 64}, 64, 1};
  Region<2> p = geom::make_octahedron(&st, 16, -16, 16, -16, 24);
  ASSERT_FALSE(p.empty());
  std::unordered_set<Point<2>, PointHash<2>> available;
  for (const auto& q : p.preboundary()) available.insert(q);
  for (const auto& child : p.split()) {
    for (const auto& q : child.preboundary())
      EXPECT_TRUE(available.contains(q));
    child.for_each([&](const Point<2>& q) { available.insert(q); });
  }
}

template <int D>
void check_wavefront_safety(const Stencil<D>& st, int64_t width) {
  geom::TileGrid<D> grid(&st, width);
  auto waves = grid.wavefronts();
  std::unordered_map<Point<D>, int, PointHash<D>> wave_of;
  std::unordered_map<Point<D>, int, PointHash<D>> tile_of;
  int tid = 0;
  for (std::size_t k = 0; k < waves.size(); ++k)
    for (const auto& tile : waves[k]) {
      tile.for_each([&](const Point<D>& p) {
        wave_of[p] = static_cast<int>(k);
        tile_of[p] = tid;
      });
      ++tid;
    }
  dag::ExplicitDag<D> g(st);
  g.for_each_vertex([&](const Point<D>& p) {
    std::array<Point<D>, geom::kMono<D> + 1> buf;
    int np = st.preds(p, buf);
    for (int i = 0; i < np; ++i) {
      if (tile_of.at(buf[i]) == tile_of.at(p)) continue;
      EXPECT_LT(wave_of.at(buf[i]), wave_of.at(p));
    }
  });
}

TEST(Invariants, WavefrontDependencySafety2D) {
  Stencil<2> st{{5, 5}, 6, 1};
  check_wavefront_safety<2>(st, 3);
  Stencil<2> st2{{4, 4}, 8, 2};
  check_wavefront_safety<2>(st2, 4);
}

TEST(Invariants, WavefrontDependencySafety3D) {
  Stencil<3> st{{3, 3, 3}, 4, 1};
  check_wavefront_safety<3>(st, 2);
}

TEST(Invariants, ShellPartitionPieceCountsAcrossD) {
  // 2K+1 pieces when the center is interior: 5 (d=1), 9 (d=2), 13 (d=3).
  Stencil<1> s1{{16}, 16, 1};
  EXPECT_EQ(geom::shell_partition<1>(
                &s1, Region<1>(&s1, {8, -8}, {24, 8}))
                .size(),
            5u);
  Stencil<2> s2{{8, 8}, 8, 1};
  EXPECT_EQ(geom::shell_partition<2>(
                &s2, geom::make_octahedron(&s2, 4, -4, 4, -4, 6))
                .size(),
            9u);
  Stencil<3> s3{{4, 4, 4}, 4, 1};
  EXPECT_EQ(geom::shell_partition<3>(
                &s3, Region<3>(&s3, {2, -2, 2, -2, 2, -2},
                               {5, 1, 5, 1, 5, 1}))
                .size(),
            13u);
}

TEST(Invariants, ExecutorChargesScaleWithAccessFn) {
  // Doubling every access cost doubles the charged time (the engine is
  // linear in f) — a sanity anchor for the cost model.
  auto g = workload::make_mix_guest<1>({16}, 16, 1, 6);
  auto run_with = [&](hram::AccessFn f) {
    sep::ExecutorConfig cfg;
    cfg.leaf_width = 1;
    cfg.f = f;
    sep::Executor<1> exec(&g, cfg);
    core::CostLedger ledger;
    exec.set_ledger(&ledger);
    geom::TileGrid<1> grid(&g.stencil, 16);
    sep::StagingStore<1> staging(&g.stencil);
    for (const auto& wave : grid.wavefronts())
      for (const auto& t : wave) exec.execute(t, staging);
    return ledger.total() -
           ledger.cost(core::CostKind::kCompute);  // f-dependent part
  };
  double t1 = run_with(hram::AccessFn::power(1.0, 1.0));
  double t2 = run_with(hram::AccessFn::power(2.0, 1.0));
  EXPECT_NEAR(t2 / t1, 2.0, 0.05);
}

TEST(Invariants, TileGridDegenerateShapes) {
  // Extremes: width 1 tiles; a single tile covering everything; a
  // 1-node mesh; a 1-step horizon.
  Stencil<1> st{{4}, 4, 1};
  geom::TileGrid<1> fine(&st, 1);
  std::int64_t pts = 0;
  for (const auto& w : fine.wavefronts())
    for (const auto& t : w) pts += t.count();
  EXPECT_EQ(pts, 16);

  geom::TileGrid<1> coarse(&st, 100);
  EXPECT_EQ(coarse.num_tiles(), 1);

  Stencil<1> tiny{{1}, 1, 1};
  geom::TileGrid<1> one(&tiny, 2);
  EXPECT_EQ(one.num_tiles(), 1);
  auto g = workload::make_mix_guest<1>({1}, 1, 1, 1);
  auto ref = sim::reference_run<1>(g);
  EXPECT_EQ(ref.final_values.size(), 1u);
}

TEST(Invariants, SingleNodeGuestThroughSimulators) {
  auto g = workload::make_mix_guest<1>({1}, 7, 3, 9);
  auto ref = sim::reference_run<1>(g);
  machine::MachineSpec host{1, 1, 1, 3};
  auto dc = sim::simulate_dc_uniproc<1>(g, host);
  EXPECT_TRUE(sim::same_values<1>(dc.final_values, ref.final_values));
}
