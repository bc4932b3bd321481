// The Proposition-2 executor: functional correctness against the
// direct guest run, runtime topological-partition assertions, space
// bounds, Proposition-3 cost conformance, the leaf's charged event
// counts against their closed form, and the StagingStore level
// lifecycle (prune, move, span erase).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "geom/figures.hpp"
#include "geom/tiling.hpp"
#include "sep/executor.hpp"
#include "sep/simd.hpp"
#include "sim/observe.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"

using namespace bsmp;
using sep::Executor;
using sep::ExecutorConfig;
using sep::StagingStore;

namespace {

/// Execute the whole volume V through tiles + executor and compare the
/// final values with the reference run.
template <int D>
void check_equivalence(sep::Guest<D> guest, int64_t tile_w, int64_t leaf_w) {
  auto ref = sim::reference_run<D>(guest);

  ExecutorConfig cfg;
  cfg.leaf_width = leaf_w;
  cfg.f = hram::AccessFn::hierarchical(D, static_cast<double>(guest.stencil.m));
  Executor<D> exec(&guest, cfg);
  core::CostLedger ledger;
  exec.set_ledger(&ledger);

  geom::TileGrid<D> grid(&guest.stencil, tile_w);
  StagingStore<D> staging(&guest.stencil);
  for (const auto& wave : grid.wavefronts())
    for (const auto& tile : wave) exec.execute(tile, staging);

  EXPECT_EQ(exec.vertices_executed(),
            guest.stencil.num_nodes() * guest.stencil.horizon);
  auto fin = sim::extract_final<D>(guest.stencil, staging);
  EXPECT_TRUE(sim::same_values<D>(fin, ref.final_values))
      << "D=" << D << " tile_w=" << tile_w << " leaf_w=" << leaf_w;
  EXPECT_GT(ledger.total(), 0.0);
}

}  // namespace

TEST(Executor1D, MatchesReferenceAcrossTileAndLeafWidths) {
  for (int64_t n : {4, 8, 13}) {
    for (int64_t T : {4, 9, 16}) {
      for (int64_t tile_w : {2, 4, 8}) {
        for (int64_t leaf_w : {1, 2, 4}) {
          if (leaf_w > tile_w) continue;
          auto g = workload::make_mix_guest<1>({n}, T, 1,
                                               0xabcdef | (n << 8) | T);
          check_equivalence<1>(std::move(g), tile_w, leaf_w);
        }
      }
    }
  }
}

TEST(Executor1D, MatchesReferenceWithMemoryDepth) {
  for (int64_t m : {2, 3, 4, 7}) {
    for (int64_t tile_w : {4, 8}) {
      auto g = workload::make_mix_guest<1>({9}, 17, m, 99 + m);
      check_equivalence<1>(std::move(g), tile_w, std::min<int64_t>(m, tile_w));
    }
  }
}

TEST(Executor2D, MatchesReference) {
  for (int64_t side : {3, 4, 6}) {
    for (int64_t tile_w : {3, 4}) {
      auto g = workload::make_mix_guest<2>({side, side}, side + 2, 1,
                                           7 * side);
      check_equivalence<2>(std::move(g), tile_w, 1);
    }
  }
}

TEST(Executor2D, MatchesReferenceWithMemoryDepth) {
  auto g = workload::make_mix_guest<2>({4, 4}, 9, 3, 1234);
  check_equivalence<2>(std::move(g), 4, 2);
}

TEST(Executor3D, MatchesReference) {
  // The Section-6 d=3 extension.
  auto g = workload::make_mix_guest<3>({3, 3, 3}, 5, 1, 55);
  check_equivalence<3>(std::move(g), 3, 1);
  auto g2 = workload::make_mix_guest<3>({2, 3, 2}, 6, 2, 56);
  check_equivalence<3>(std::move(g2), 4, 2);
}

TEST(Executor1D, Rule110MatchesReference) {
  sep::Guest<1> g;
  g.stencil = geom::Stencil<1>{{16}, 16, 1};
  g.rule = workload::rule110();
  g.input = workload::random_input<1>(2024);
  check_equivalence<1>(std::move(g), 8, 1);
}

TEST(Executor, PeakStagingWithinSpaceBound) {
  // The live value footprint of executing one D(r) must respect
  // Prop. 3's space bound (σ(|D|) = O(sqrt(|D|)) for d=1, m=1).
  for (int64_t r : {8, 16, 32}) {
    auto g = workload::make_mix_guest<1>({64}, 64, 1, 5);
    ExecutorConfig cfg;
    cfg.leaf_width = 1;
    cfg.f = hram::AccessFn::hierarchical(1, 1.0);
    Executor<1> exec(&g, cfg);
    core::CostLedger ledger;
    exec.set_ledger(&ledger);
    geom::Region<1> d = geom::make_diamond(&g.stencil, 16, -r / 2, r);
    ASSERT_FALSE(d.empty());
    StagingStore<1> staging(&g.stencil);
    // Seed the preboundary with arbitrary values.
    for (const auto& q : d.preboundary()) staging.insert(q, 1);
    exec.execute(d, staging);
    EXPECT_LE(static_cast<double>(exec.peak_staging()),
              exec.space_bound(r))
        << "r=" << r;
  }
}

TEST(Executor, CostWithinProposition3Bound) {
  // τ(|U|) <= τ0 |U| log |U| for the d=1 diamond on the f(x)=x H-RAM.
  // Verify the normalized cost stays bounded (flat, in fact) as r
  // grows; τ0 is a constant of a few hundred (the paper's own σ0 for
  // this separator is ~11 and every copied word pays ~4 f(S(U))).
  double worst = 0, first = 0, last = 0;
  for (int64_t r : {8, 16, 32, 64}) {
    auto g = workload::make_mix_guest<1>({128}, 128, 1, 6);
    ExecutorConfig cfg;
    cfg.leaf_width = 1;
    cfg.f = hram::AccessFn::hierarchical(1, 1.0);
    Executor<1> exec(&g, cfg);
    core::CostLedger ledger;
    exec.set_ledger(&ledger);
    geom::Region<1> d = geom::make_diamond(&g.stencil, 32, -r / 2, r);
    StagingStore<1> staging(&g.stencil);
    for (const auto& q : d.preboundary()) staging.insert(q, 1);
    exec.execute(d, staging);
    double k = static_cast<double>(d.count());
    double norm = ledger.total() / (k * core::logbar(k));
    if (first == 0) first = norm;
    last = norm;
    worst = std::max(worst, norm);
  }
  // A wrong exponent (Θ(k^1.5)) would both exceed the cap at r=64 and
  // make the normalized cost grow ~2x per doubling of r.
  EXPECT_LT(worst, 1000.0);
  EXPECT_LT(last / first, 2.0) << "normalized cost is not flat";
}

TEST(Executor, LeafWidthDoesNotChangeValues) {
  auto g = workload::make_mix_guest<1>({16}, 16, 4, 777);
  auto ref = sim::reference_run<1>(g);
  for (int64_t leaf : {1, 2, 4, 8}) {
    ExecutorConfig cfg;
    cfg.leaf_width = leaf;
    cfg.f = hram::AccessFn::hierarchical(1, 4.0);
    Executor<1> exec(&g, cfg);
    core::CostLedger ledger;
    exec.set_ledger(&ledger);
    geom::TileGrid<1> grid(&g.stencil, 8);
    StagingStore<1> staging(&g.stencil);
    for (const auto& wave : grid.wavefronts())
      for (const auto& tile : wave) exec.execute(tile, staging);
    auto fin = sim::extract_final<1>(g.stencil, staging);
    EXPECT_TRUE(sim::same_values<1>(fin, ref.final_values)) << leaf;
  }
}

TEST(Executor, RequiresLedger) {
  auto g = workload::make_mix_guest<1>({4}, 4, 1, 1);
  Executor<1> exec(&g, ExecutorConfig{});
  geom::TileGrid<1> grid(&g.stencil, 4);
  StagingStore<1> staging(&g.stencil);
  auto waves = grid.wavefronts();
  ASSERT_FALSE(waves.empty());
  ASSERT_FALSE(waves[0].empty());
  EXPECT_THROW(exec.execute(waves[0][0], staging), bsmp::precondition_error);
}

TEST(Executor, MissingPreboundaryTriggersInvariantError) {
  // Executing an interior diamond with an empty staging store must trip
  // the runtime topological-partition assertion, not silently compute.
  auto g = workload::make_mix_guest<1>({16}, 16, 1, 3);
  ExecutorConfig cfg;
  cfg.leaf_width = 1;
  cfg.f = hram::AccessFn::unit();
  Executor<1> exec(&g, cfg);
  core::CostLedger ledger;
  exec.set_ledger(&ledger);
  geom::Region<1> d = geom::make_diamond(&g.stencil, 8, -4, 8);
  StagingStore<1> staging(&g.stencil);  // missing Γin
  EXPECT_THROW(exec.execute(d, staging), bsmp::invariant_error);
}

// ---------------------------------------------------------------------
// Closed-form leaf charges: the one oracle that shares no code with
// sep::eval_vertex. A full-volume run charges one kCompute event per
// vertex, and one kLocalAccess event per operand plus one for the
// result: an input vertex (t = 0) reads one word, any other vertex its
// self operand and its in-mesh neighbors. A level holds
// Σ_i 2(e_i - 1)·N/e_i in-mesh neighbor pairs, so with N nodes and T
// steps
//   kCompute     = N·T,
//   kLocalAccess = 2N + (T-1)·(2N + Σ_i 2(e_i - 1)·N/e_i).
// ---------------------------------------------------------------------

namespace {

template <int D>
std::uint64_t closed_form_local_access(const geom::Stencil<D>& st) {
  const std::uint64_t n = static_cast<std::uint64_t>(st.num_nodes());
  std::uint64_t neighbors = 0;
  for (int i = 0; i < D; ++i) {
    const auto e = static_cast<std::uint64_t>(st.extent[i]);
    neighbors += 2 * (e - 1) * (n / e);
  }
  const auto t = static_cast<std::uint64_t>(st.horizon);
  return 2 * n + (t - 1) * (2 * n + neighbors);
}

/// Full-volume run with Theorem-3 leaves (width m): tiles as wide as
/// the first extent, executed in TileGrid wavefronts — the drive of
/// tables/hotpath.hpp — through the guest's rule. `row_leaves` gets
/// the number of leaves that took the SIMD row path.
template <int D>
core::CostLedger full_volume_ledger(const sep::Guest<D>& g,
                                    std::int64_t& row_leaves) {
  ExecutorConfig cfg;
  cfg.leaf_width = g.stencil.m;
  cfg.f = hram::AccessFn::unit();
  Executor<D> exec(&g, cfg);
  core::CostLedger ledger;
  exec.set_ledger(&ledger);
  StagingStore<D> staging(&g.stencil);
  geom::TileGrid<D> grid(&g.stencil, g.stencil.extent[0]);
  for (const auto& wave : grid.wavefronts())
    for (const auto& tile : wave) exec.execute(tile, staging);
  EXPECT_EQ(exec.vertices_executed(),
            g.stencil.num_nodes() * g.stencil.horizon);
  row_leaves = exec.row_leaves();
  return ledger;
}

/// The type-erased rule, and the MixKernel with its SIMD row path on
/// and off, must all charge exactly the closed form. `rows` says
/// whether the m-wide leaves reach the row path (in a SIMD build).
template <int D>
void expect_closed_form_charges(std::array<int64_t, D> extent, int64_t T,
                                int64_t m, bool rows) {
  auto g = workload::make_mix_guest<D>(extent, T, m, 41);
  auto erased = g;
  erased.rule = sep::type_erased(g.rule);
  const auto compute =
      static_cast<std::uint64_t>(g.stencil.num_nodes() * T);
  const std::uint64_t local = closed_form_local_access(g.stencil);
  const bool saved = sep::simd::enabled();
  auto check = [&](const core::CostLedger& ledger, const char* path) {
    EXPECT_EQ(ledger.events(core::CostKind::kCompute), compute)
        << path << " T=" << T << " m=" << m;
    EXPECT_EQ(ledger.events(core::CostKind::kLocalAccess), local)
        << path << " T=" << T << " m=" << m;
  };
  std::int64_t row_leaves = 0;
  check(full_volume_ledger(erased, row_leaves), "FunctionKernel");
  EXPECT_EQ(row_leaves, 0);
  for (bool vector_path : {true, false}) {
    sep::simd::set_enabled(vector_path);
    const char* path = vector_path ? "MixKernel simd" : "MixKernel scalar";
    check(full_volume_ledger(g, row_leaves), path);
    EXPECT_EQ(row_leaves > 0, rows && vector_path && BSMP_SIMD_ENABLED != 0)
        << path << " T=" << T << " m=" << m << ": row leaves " << row_leaves;
  }
  sep::simd::set_enabled(saved);
}

}  // namespace

TEST(Executor, LeafChargesMatchClosedFormD1) {
  geom::Stencil<1> hot{{512}, 512, 8};
  EXPECT_EQ(closed_form_local_access(hot), 1046530u);
  expect_closed_form_charges<1>({512}, 512, 8, /*rows=*/true);
  expect_closed_form_charges<1>({37}, 53, 3, /*rows=*/false);
}

TEST(Executor, LeafChargesMatchClosedFormD2) {
  geom::Stencil<2> hot{{48, 48}, 48, 4};
  EXPECT_EQ(closed_form_local_access(hot), 645312u);
  expect_closed_form_charges<2>({48, 48}, 48, 4, /*rows=*/false);
  expect_closed_form_charges<2>({9, 13}, 21, 2, /*rows=*/false);
  expect_closed_form_charges<2>({32, 32}, 32, 8, /*rows=*/true);
}

// ---------------------------------------------------------------------
// StagingStore levels: one owned buffer per materialized time level.
// ---------------------------------------------------------------------

namespace {

geom::Stencil<1> line_stencil(std::int64_t w, std::int64_t horizon,
                              std::int64_t m = 1) {
  geom::Stencil<1> st;
  st.extent = {w};
  st.horizon = horizon;
  st.m = m;
  return st;
}

geom::Point<1> at1(std::int64_t x, std::int64_t t) {
  geom::Point<1> p;
  p.x = {x};
  p.t = t;
  return p;
}

std::vector<std::pair<geom::Point<1>, sep::Word>> contents(
    const StagingStore<1>& s) {
  std::vector<std::pair<geom::Point<1>, sep::Word>> out;
  s.for_each([&](const geom::Point<1>& p, sep::Word v) {
    out.emplace_back(p, v);
  });
  return out;
}

}  // namespace

TEST(StagingStore, PrunedLevelRematerializesEmpty) {
  auto st = line_stencil(16, 8);
  StagingStore<1> s(&st);
  for (std::int64_t x = 0; x < 16; ++x) s.insert(at1(x, 0), sep::Word(100 + x));
  s.insert(at1(2, 1), sep::Word(7));
  EXPECT_EQ(s.size(), 17u);
  EXPECT_EQ(s.level_allocs(), 2u);

  // Free level 0 and touch it again: no old value may read as live.
  s.prune_below(1, 8);
  EXPECT_EQ(s.size(), 1u);
  s.insert(at1(3, 0), sep::Word(1));
  EXPECT_EQ(s.level_allocs(), 3u);  // a re-materialization counts again
  for (std::int64_t x = 0; x < 16; ++x) {
    const sep::Word* v = s.find(at1(x, 0));
    if (x == 3) {
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v, sep::Word(1));
    } else {
      EXPECT_EQ(v, nullptr) << "pruned value resurrected at x=" << x;
    }
  }
  EXPECT_EQ(contents(s),
            (std::vector<std::pair<geom::Point<1>, sep::Word>>{
                {at1(3, 0), sep::Word(1)}, {at1(2, 1), sep::Word(7)}}));
}

TEST(StagingStore, MovedFromStoreIsEmptyAndTargetKeepsValues) {
  auto st = line_stencil(8, 2);
  StagingStore<1> a(&st);
  a.insert(at1(1, 0), sep::Word(4));
  a.insert(at1(5, 1), sep::Word(6));

  StagingStore<1> b(std::move(a));
  EXPECT_EQ(a.find(at1(1, 0)), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(contents(a).empty());
  ASSERT_NE(b.find(at1(1, 0)), nullptr);
  EXPECT_EQ(*b.find(at1(1, 0)), sep::Word(4));
  EXPECT_EQ(b.size(), 2u);

  StagingStore<1> c(&st);
  c.insert(at1(0, 0), sep::Word(9));
  c = std::move(b);
  EXPECT_EQ(b.find(at1(5, 1)), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(contents(b).empty());
  EXPECT_EQ(c.find(at1(0, 0)), nullptr);  // the overwritten value is gone
  ASSERT_NE(c.find(at1(5, 1)), nullptr);
  EXPECT_EQ(*c.find(at1(5, 1)), sep::Word(6));
  EXPECT_EQ(c.size(), 2u);
}

// erase_span removes the live cells of a run and skips the absent
// ones, like one erase() per cell.
TEST(StagingStore, EraseSpanMatchesPointErases) {
  auto st = line_stencil(16, 6, 2);
  StagingStore<1> spans(&st);
  StagingStore<1> points(&st);
  for (int64_t x : {2, 3, 5, 6, 9}) {
    spans.insert(at1(x, 2), sep::Word(x));
    points.insert(at1(x, 2), sep::Word(x));
  }
  EXPECT_EQ(spans.erase_span(at1(3, 2), 4), 3);  // x = 3..6: 3, 5, 6 live
  for (int64_t x = 3; x <= 6; ++x) points.erase(at1(x, 2));
  EXPECT_EQ(contents(spans), contents(points));
  EXPECT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans.erase_span(at1(0, 4), 16), 0);  // level never written
}
