#include <gtest/gtest.h>

#include <algorithm>

#include "sep/staging.hpp"
#include "sim/observe.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"

using namespace bsmp;
using geom::Point;
using geom::Stencil;

TEST(FinalPoints, M1IsTheLastRow) {
  Stencil<1> st{{4}, 6, 1};
  auto pts = sim::final_points<1>(st);
  ASSERT_EQ(pts.size(), 4u);
  for (const auto& p : pts) EXPECT_EQ(p.t, 5);
}

TEST(FinalPoints, OnePerNodePerCell) {
  Stencil<1> st{{5}, 12, 3};
  auto pts = sim::final_points<1>(st);
  EXPECT_EQ(pts.size(), 15u);
  // Cell j was last written at the largest t < 12 with t ≡ j (mod 3):
  // j=0 -> 9, j=1 -> 10, j=2 -> 11.
  int count9 = 0, count10 = 0, count11 = 0;
  for (const auto& p : pts) {
    if (p.t == 9) ++count9;
    if (p.t == 10) ++count10;
    if (p.t == 11) ++count11;
  }
  EXPECT_EQ(count9, 5);
  EXPECT_EQ(count10, 5);
  EXPECT_EQ(count11, 5);
}

TEST(FinalPoints, MemoryDeeperThanHorizon) {
  // m > T: cells j >= T were never written and are skipped.
  Stencil<1> st{{3}, 4, 10};
  auto pts = sim::final_points<1>(st);
  EXPECT_EQ(pts.size(), 3u * 4u);
  for (const auto& p : pts) {
    EXPECT_GE(p.t, 0);
    EXPECT_LT(p.t, 4);
  }
}

TEST(FinalPoints, D2AndD3Counts) {
  Stencil<2> st2{{3, 4}, 5, 2};
  EXPECT_EQ(sim::final_points<2>(st2).size(), 3u * 4u * 2u);
  Stencil<3> st3{{2, 2, 2}, 3, 1};
  EXPECT_EQ(sim::final_points<3>(st3).size(), 8u);
}

namespace {

/// A distinct value per vertex, so a misplaced read cannot go unseen.
template <int D>
sep::Word tag(const Point<D>& q) {
  sep::Word w = static_cast<sep::Word>(q.t) * 1000003u;
  for (int i = 0; i < D; ++i) w = w * 131u + static_cast<sep::Word>(q.x[i]);
  return w + 1;
}

/// Every vertex of the stencil's volume, tagged, in `store`.
template <int D>
void stage_volume(const Stencil<D>& st, sep::StagingStore<D>& store) {
  const int64_t n = st.num_nodes();
  for (int64_t t = 0; t < st.horizon; ++t) {
    for (int64_t idx = 0; idx < n; ++idx) {
      Point<D> q;
      q.t = t;
      int64_t rest = idx;
      for (int i = D - 1; i >= 0; --i) {
        q.x[i] = rest % st.extent[i];
        rest /= st.extent[i];
      }
      store.insert(q, tag<D>(q));
    }
  }
}

/// Iteration visits exactly final_points, in order, and at(q) reads
/// the value the store holds at q — from the dense row path
/// (StagingStore) and the point path (a run_schedule ValueMap) alike.
template <int D>
void expect_matches_store(const Stencil<D>& st) {
  sep::StagingStore<D> dense(&st);
  stage_volume<D>(st, dense);
  sep::ValueMap<D> map;
  dense.for_each(
      [&map](const Point<D>& q, sep::Word v) { map.emplace(q, v); });
  const auto pts = sim::final_points<D>(st);
  const auto fin = sim::extract_final<D>(st, dense);
  ASSERT_EQ(fin.size(), pts.size());
  std::size_t i = 0;
  for (const auto& [q, v] : fin) {
    ASSERT_LT(i, pts.size());
    EXPECT_EQ(q, pts[i]) << "iteration order differs at " << i;
    EXPECT_EQ(v, *dense.find(q));
    ++i;
  }
  EXPECT_EQ(i, pts.size());
  for (const auto& q : pts) {
    ASSERT_TRUE(fin.contains(q));
    EXPECT_EQ(fin.at(q), *dense.find(q));
  }
  EXPECT_EQ(sim::extract_final<D>(st, map), fin);
}

}  // namespace

TEST(FinalValues, OrderAndLookupMatchFinalPointsD1) {
  expect_matches_store<1>(Stencil<1>{{5}, 12, 3});
  expect_matches_store<1>(Stencil<1>{{7}, 9, 1});
}

TEST(FinalValues, OrderAndLookupMatchFinalPointsD2) {
  expect_matches_store<2>(Stencil<2>{{3, 4}, 5, 2});
  expect_matches_store<2>(Stencil<2>{{4, 3}, 7, 4});
}

TEST(FinalValues, OrderAndLookupMatchFinalPointsD3) {
  expect_matches_store<3>(Stencil<3>{{2, 3, 2}, 4, 3});
}

TEST(FinalValues, MemoryDeeperThanHorizonSkipsUnwrittenCells) {
  // m > T: only the T written cells per node are final points.
  Stencil<1> st{{3}, 4, 10};
  expect_matches_store<1>(st);
  sim::FinalValues<1> fin(st);
  EXPECT_EQ(fin.size(), 3u * 4u);
  EXPECT_EQ(fin.cells(), 4);
  EXPECT_TRUE(fin.contains(Point<1>{{2}, 0}));
  EXPECT_FALSE(fin.contains(Point<1>{{2}, 4}));
  expect_matches_store<2>(Stencil<2>{{2, 3}, 3, 5});
}

TEST(FinalValues, NonFinalPointsAreRejected) {
  sim::FinalValues<1> fin(Stencil<1>{{4}, 8, 2});
  EXPECT_TRUE(fin.contains(Point<1>{{3}, 6}));
  EXPECT_FALSE(fin.contains(Point<1>{{3}, 5}));   // overwritten cell
  EXPECT_FALSE(fin.contains(Point<1>{{4}, 7}));   // outside the mesh
  EXPECT_FALSE(fin.contains(Point<1>{{0}, 8}));   // past the horizon
  EXPECT_THROW(fin.at(Point<1>{{3}, 5}), bsmp::precondition_error);
}

TEST(ExtractFinal, PullsExactlyTheFinalPoints) {
  auto g = workload::make_mix_guest<1>({4}, 8, 2, 3);
  auto ref = sim::reference_run<1>(g);
  // extract_final over a superset staging map returns only the finals.
  sep::ValueMap<1> staging;
  for (const auto& [q, v] : ref.final_values) staging.emplace(q, v);
  staging.emplace(Point<1>{{0}, 0}, 999);
  auto fin = sim::extract_final<1>(g.stencil, staging);
  EXPECT_EQ(fin.size(), 8u);
  EXPECT_FALSE(fin.contains(Point<1>{{0}, 0}));
  EXPECT_EQ(fin, ref.final_values);
  // The same from a dense store holding the whole volume.
  sep::StagingStore<1> dense(&g.stencil);
  stage_volume<1>(g.stencil, dense);
  auto fin_dense = sim::extract_final<1>(g.stencil, dense);
  EXPECT_EQ(fin_dense.size(), 8u);
  EXPECT_EQ(fin_dense.at(Point<1>{{2}, 7}), tag<1>(Point<1>{{2}, 7}));
}

TEST(ExtractFinal, MissingValueIsAnInvariantError) {
  Stencil<1> st{{4}, 4, 1};
  sep::ValueMap<1> empty;
  EXPECT_THROW(sim::extract_final<1>(st, empty), bsmp::invariant_error);
  // A dense row with one hole falls back to the point path and throws.
  sep::StagingStore<1> dense(&st);
  stage_volume<1>(st, dense);
  dense.erase(Point<1>{{2}, 3});
  EXPECT_THROW(sim::extract_final<1>(st, dense), bsmp::invariant_error);
}

TEST(SameValues, DetectsEveryKindOfMismatch) {
  auto g = workload::make_mix_guest<1>({4}, 8, 2, 3);
  auto a = sim::reference_run<1>(g).final_values;
  auto b = a;
  EXPECT_TRUE(sim::same_values<1>(a, b));
  b.at(Point<1>{{1}, 7}) ^= 1;
  EXPECT_FALSE(sim::same_values<1>(a, b));  // a flipped value
  b.at(Point<1>{{1}, 7}) ^= 1;
  EXPECT_TRUE(sim::same_values<1>(a, b));
  // A different stencil of equal size, holding the same value array.
  sim::FinalValues<1> c(Stencil<1>{{8}, 8, 1});
  ASSERT_EQ(c.size(), a.size());
  std::copy(a.data(), a.data() + a.size(), c.data());
  EXPECT_FALSE(sim::same_values<1>(a, c));
  // Same extent and size, different m and horizon.
  sim::FinalValues<1> d(Stencil<1>{{4}, 2, 3});
  ASSERT_EQ(d.size(), a.size());
  std::copy(a.data(), a.data() + a.size(), d.data());
  EXPECT_FALSE(sim::same_values<1>(a, d));
  EXPECT_FALSE(sim::same_values<1>(a, sim::FinalValues<1>{}));
}

TEST(Reference, FinalValuesCoverEveryCell) {
  auto g = workload::make_mix_guest<2>({3, 3}, 7, 4, 9);
  auto ref = sim::reference_run<2>(g);
  EXPECT_EQ(ref.final_values.size(), 9u * 4u);
}

TEST(Reference, HorizonShorterThanMemory) {
  // T < m: only T cells were ever written per node.
  auto g = workload::make_mix_guest<1>({5}, 3, 8, 4);
  auto ref = sim::reference_run<1>(g);
  EXPECT_EQ(ref.final_values.size(), 5u * 3u);
}
