// Property tests on randomized Region boxes: every structural claim
// the separator machinery relies on, checked against brute force over
// the explicit dag on random instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "dag/explicit_dag.hpp"
#include "engine/pool.hpp"
#include "geom/region.hpp"

using namespace bsmp;
using geom::Point;
using geom::Region;
using geom::run_points;
using geom::Stencil;

namespace {

/// A random box over a small stencil, biased to interesting shapes
/// (clipped by space/time about half the time).
template <int D>
Region<D> random_region(core::SplitMix64& rng, const Stencil<D>* st) {
  constexpr int K = geom::kMono<D>;
  std::array<int64_t, K> lo, hi;
  for (int i = 0; i < D; ++i) {
    int64_t umax = st->horizon + st->extent[i] - 2;
    int64_t u0 = static_cast<int64_t>(rng.next_below(umax + 4)) - 2;
    int64_t ulen = 1 + static_cast<int64_t>(rng.next_below(umax + 2));
    lo[2 * i] = u0;
    hi[2 * i] = u0 + ulen;
    int64_t w0 = static_cast<int64_t>(rng.next_below(
                     st->horizon + st->extent[i] + 2)) -
                 st->extent[i] - 1;
    int64_t wlen = 1 + static_cast<int64_t>(rng.next_below(umax + 2));
    lo[2 * i + 1] = w0;
    hi[2 * i + 1] = w0 + wlen;
  }
  return Region<D>(st, lo, hi);
}

template <int D>
dag::PointSet<D> to_set(const Region<D>& r) {
  dag::PointSet<D> s;
  r.for_each([&](const Point<D>& p) { s.insert(p); });
  return s;
}

template <int D>
void check_region_invariants(const Stencil<D>& st, const Region<D>& r) {
  dag::ExplicitDag<D> g(st);

  // count() == enumeration == membership scan.
  auto set = to_set(r);
  EXPECT_EQ(r.count(), static_cast<int64_t>(set.size()));
  int64_t members = 0;
  g.for_each_vertex([&](const Point<D>& p) {
    if (r.contains(p)) {
      ++members;
      EXPECT_TRUE(set.contains(p));
    }
  });
  EXPECT_EQ(members, r.count());

  if (r.empty()) {
    EXPECT_EQ(r.count(), 0);
    return;
  }
  EXPECT_TRUE(r.contains(*r.first_point()));

  // Preboundary == brute force.
  auto fast_pre = r.preboundary();
  dag::PointSet<D> fast_pre_set(fast_pre.begin(), fast_pre.end());
  EXPECT_EQ(fast_pre_set.size(), fast_pre.size()) << "duplicate preboundary";
  EXPECT_EQ(fast_pre_set, g.preboundary(set));

  // Outset == brute force.
  dag::PointSet<D> brute_out;
  std::array<Point<D>, geom::kMono<D> + 1> buf;
  for (const auto& p : set) {
    int k = st.succ_positions(p, buf);
    for (int i = 0; i < k; ++i)
      if (!r.contains(buf[i])) {
        brute_out.insert(p);
        break;
      }
  }
  auto fast_out = r.outset();
  dag::PointSet<D> fast_out_set(fast_out.begin(), fast_out.end());
  EXPECT_EQ(fast_out_set.size(), fast_out.size()) << "duplicate outset";
  EXPECT_EQ(fast_out_set, brute_out);

  // The allocation-free counting forms agree exactly with the
  // materializing forms (the executor's count-based charging depends
  // on this equality being bit-for-bit, not approximate).
  EXPECT_EQ(r.preboundary_count(), static_cast<int64_t>(fast_pre.size()));
  EXPECT_EQ(r.outset_count(), static_cast<int64_t>(fast_out.size()));

  // The visitors enumerate the same sequences as the vectors.
  std::vector<Point<D>> visited_pre, visited_out;
  r.preboundary_visit([&](const Point<D>& q) { visited_pre.push_back(q); });
  r.outset_visit([&](const Point<D>& q) { visited_out.push_back(q); });
  EXPECT_EQ(visited_pre, fast_pre);
  EXPECT_EQ(visited_out, fast_out);

  // in_outset is a pointwise oracle for outset membership: true on
  // exactly the out-set, false on interior points and non-members.
  for (const auto& p : set)
    EXPECT_EQ(r.in_outset(p), brute_out.contains(p)) << p.t;
  for (const auto& q : fast_pre)
    EXPECT_FALSE(r.in_outset(q)) << "preboundary point claimed in out-set";

  // Convexity (Definition 5).
  EXPECT_TRUE(g.is_convex(set));

  // split(): disjoint cover in topological order (Definition 4), with
  // convex children.
  if (r.width() >= 2) {
    auto kids = r.split();
    std::vector<dag::PointSet<D>> psets;
    int64_t total = 0;
    for (const auto& k : kids) {
      EXPECT_FALSE(k.empty());
      psets.push_back(to_set(k));
      total += static_cast<int64_t>(psets.back().size());
      EXPECT_TRUE(g.is_convex(psets.back()));
    }
    EXPECT_EQ(total, r.count());
    EXPECT_TRUE(g.is_topological_partition(set, psets));
  }
}

}  // namespace

class RegionFuzz1D : public ::testing::TestWithParam<int> {};

TEST_P(RegionFuzz1D, InvariantsHold) {
  core::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 77 + 5);
  for (int64_t m : {1, 2, 3}) {
    Stencil<1> st{{7 + GetParam() % 4}, 9, m};
    for (int iter = 0; iter < 6; ++iter)
      check_region_invariants<1>(st, random_region<1>(rng, &st));
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, RegionFuzz1D, ::testing::Range(0, 12));

class RegionFuzz2D : public ::testing::TestWithParam<int> {};

TEST_P(RegionFuzz2D, InvariantsHold) {
  core::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 131 + 3);
  for (int64_t m : {1, 2}) {
    Stencil<2> st{{5, 4 + GetParam() % 3}, 6, m};
    for (int iter = 0; iter < 3; ++iter)
      check_region_invariants<2>(st, random_region<2>(rng, &st));
  }
}
INSTANTIATE_TEST_SUITE_P(Seeds, RegionFuzz2D, ::testing::Range(0, 8));

class RegionFuzz3D : public ::testing::TestWithParam<int> {};

TEST_P(RegionFuzz3D, InvariantsHold) {
  core::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) * 17 + 11);
  Stencil<3> st{{3, 3, 3}, 4, 1 + GetParam() % 2};
  for (int iter = 0; iter < 2; ++iter)
    check_region_invariants<3>(st, random_region<3>(rng, &st));
}
INSTANTIATE_TEST_SUITE_P(Seeds, RegionFuzz3D, ::testing::Range(0, 6));

TEST(RegionEdge, SinglePointBox) {
  Stencil<1> st{{8}, 8, 1};
  // u=5, w=1 -> t=3, x=2.
  Region<1> r(&st, {5, 1}, {6, 2});
  ASSERT_EQ(r.count(), 1);
  auto p = *r.first_point();
  EXPECT_EQ(p.t, 3);
  EXPECT_EQ(p.x[0], 2);
  auto pre = r.preboundary();
  EXPECT_EQ(pre.size(), 3u);  // three preds of an interior m=1 vertex
  EXPECT_THROW(r.split(), bsmp::precondition_error);
}

TEST(RegionEdge, ParityEmptyBox) {
  // u and w fixed with odd sum: no lattice point (t would be half-odd).
  Stencil<1> st{{8}, 8, 1};
  Region<1> r(&st, {5, 2}, {6, 3});
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.count(), 0);
  EXPECT_TRUE(r.preboundary().empty());
  EXPECT_TRUE(r.outset().empty());
  EXPECT_EQ(r.preboundary_count(), 0);
  EXPECT_EQ(r.outset_count(), 0);
}

TEST(RegionEdge, BoxOutsideSpaceIsEmpty) {
  Stencil<1> st{{4}, 4, 1};
  Region<1> below(&st, {-8, -8}, {-4, -4});
  EXPECT_TRUE(below.empty());
  Region<1> beyond(&st, {100, 100}, {104, 104});
  EXPECT_TRUE(beyond.empty());
}

TEST(RegionEdge, FullVolumeOutsetIsTopRows) {
  // A box covering all of V: the outset must include every node's last
  // row (their self-lane successors are past the horizon).
  Stencil<1> st{{6}, 6, 2};
  Region<1> v(&st, {0, -5}, {11, 6});
  EXPECT_EQ(v.count(), 36);
  auto out = v.outset();
  dag::PointSet<1> outset(out.begin(), out.end());
  for (int64_t x = 0; x < 6; ++x) {
    EXPECT_TRUE(outset.contains(Point<1>{{x}, 5}));
    EXPECT_TRUE(outset.contains(Point<1>{{x}, 4}));  // t >= T - m
  }
  // And its preboundary is empty (nothing precedes V).
  EXPECT_TRUE(v.preboundary().empty());
}

TEST(RegionEdge, WidthAndTimeRange) {
  Stencil<1> st{{16}, 16, 1};
  Region<1> r(&st, {2, -5}, {10, 1});
  EXPECT_EQ(r.width(), 8);
  auto [tmin, tmax] = r.time_range();
  EXPECT_EQ(tmin, 0);  // clipped at 0 even though the box dips below
  EXPECT_LE(tmax, 15);
  EXPECT_GE(tmax, tmin);
}

// ---- Translation-class memo -------------------------------------------
//
// Region's boundary counts, split children and served boundary walks
// are served by a per-thread memo keyed by translation class
// (geom/region.hpp). The tests below pin the key's exactness: memoized
// counts == direct interval counts == materialized sizes, memoized
// children == split_direct(), and each served run list, replayed on
// the box, == its direct walk point for point and in order — for the
// boxes of every small shape at every offset on small stencils — walls,
// t = 0 and the horizon included — so a key that merged two boxes that
// are not translates, a wall clamp set too tight, or a run stored off
// the anchor fails here. Each (D, m) sweeps two stencils, so translates
// on different stencils share entries as they do in a simulator run.

namespace {

template <int D>
std::string box_str(const Region<D>& r) {
  std::ostringstream os;
  os << "m=" << r.stencil().m << " lo=(";
  for (int64_t v : r.lo()) os << v << ' ';
  os << ") hi=(";
  for (int64_t v : r.hi()) os << v << ' ';
  os << ')';
  return os.str();
}

template <int D, class Kids>
bool same_children(const Kids& got, const std::vector<Region<D>>& want) {
  if (got.size() != want.size()) return false;
  std::size_t i = 0;
  for (const Region<D>& k : got) {
    if (k.lo() != want[i].lo() || k.hi() != want[i].hi()) return false;
    ++i;
  }
  return true;
}

/// Each served run list of `r` against the direct walk it stands for:
/// the out-set runs against outset_spans, the preboundary runs against
/// preboundary_visit, and the retention runs against the children's
/// outset_visit_minus(r) in split order. Each list is queried twice, so
/// both the filling walk and the replay of what it stored are checked;
/// the first disagreement, or "" if none.
template <int D>
std::string runs_mismatch(const Region<D>& r) {
  auto served_twice = [](const auto& served,
                         const std::vector<Point<D>>& want) {
    return run_points<D>(served) == want && run_points<D>(served) == want;
  };
  if (!served_twice([&](auto&& f) { r.outset_runs(f); },
                    run_points<D>([&](auto&& f) { r.outset_spans(f); })))
    return "outset_runs()";
  if (!served_twice([&](auto&& f) { r.preboundary_runs(f); },
                    r.preboundary()))
    return "preboundary_runs()";
  if (r.width() >= 2) {
    std::vector<Point<D>> kept;
    for (const Region<D>& child : r.split_direct())
      child.outset_visit_minus(
          r, [&](const Point<D>& q) { kept.push_back(q); });
    if (!served_twice([&](auto&& f) { r.retention_runs(f); }, kept))
      return "retention_runs()";
  }
  return "";
}

/// Every memoized answer for `r` (one memo query each, two per run
/// list) against the direct code and the materialized sets; the first
/// disagreement, or "" if none.
template <int D>
std::string memo_mismatch(const Region<D>& r) {
  const int64_t pre = r.preboundary_count_direct();
  const int64_t out = r.outset_count_direct();
  if (r.preboundary_count() != pre) return "preboundary_count";
  if (r.outset_count() != out) return "outset_count";
  if (static_cast<int64_t>(r.preboundary().size()) != pre)
    return "preboundary().size()";
  if (static_cast<int64_t>(r.outset().size()) != out) return "outset().size()";
  if (r.width() >= 2) {
    typename Region<D>::Children kids;
    r.split_into(kids);
    if (!same_children<D>(kids, r.split_direct())) return "split_into()";
  }
  return runs_mismatch(r);
}

/// Range of monotone coordinate k over the stencil's vertices.
template <int D>
std::pair<int64_t, int64_t> coord_range(const Stencil<D>& st, int k) {
  const int64_t e = st.extent[k / 2] - 1;
  const int64_t t = st.horizon - 1;
  return k % 2 == 0 ? std::pair<int64_t, int64_t>{0, t + e}
                    : std::pair<int64_t, int64_t>{-e, t};
}

/// Checks the box of sides `side` at every offset at which it meets
/// the coordinate ranges of the stencil's vertices (odometer over the K
/// lower corners; a box that misses one range is empty). The first
/// mismatch fails the test.
template <int D>
void sweep_offsets(const Stencil<D>& st,
                   const std::array<int64_t, geom::kMono<D>>& side) {
  constexpr int K = geom::kMono<D>;
  std::array<int64_t, K> first, last, lo;
  for (int k = 0; k < K; ++k) {
    auto [a, b] = coord_range(st, k);
    first[k] = a - side[k] + 1;
    last[k] = b;
    lo[k] = first[k];
  }
  for (;;) {
    std::array<int64_t, K> hi;
    for (int k = 0; k < K; ++k) hi[k] = lo[k] + side[k];
    Region<D> r(&st, lo, hi);
    const std::string bad = memo_mismatch(r);
    if (!bad.empty()) {
      ADD_FAILURE() << bad << " disagrees for " << box_str(r);
      return;
    }
    int k = 0;
    for (; k < K; ++k) {
      if (++lo[k] <= last[k]) break;
      lo[k] = first[k];
    }
    if (k == K) return;
  }
}

}  // namespace

class RegionMemoExhaustive : public ::testing::TestWithParam<int> {};

/// Memo hits scored since `before`: a sweep whose boxes never shared a
/// class would compare nothing against the memo's stored answers.
template <int D>
std::uint64_t hits_since(const geom::RegionMemoStats& before) {
  return Region<D>::memo_stats().hits - before.hits;
}

// d=1: every box of sides up to 8 at every offset.
TEST_P(RegionMemoExhaustive, D1EveryBoxUpToWidth8) {
  const int64_t m = GetParam();
  const geom::RegionMemoStats before = Region<1>::memo_stats();
  for (Stencil<1> st : {Stencil<1>{{6}, 7, m}, Stencil<1>{{13}, 11, m}}) {
    for (int64_t a = 1; a <= 8; ++a)
      for (int64_t b = 1; b <= 8; ++b)
        sweep_offsets<1>(st, {a, b});
  }
  EXPECT_GT(hits_since<1>(before), 0u);
}

// d=2: every box of equal sides up to 8 at every offset, and of the
// mixed sides w/w+1 that halving odd boxes produces; a second, wider
// stencil repeats the small sides. On meshes this small every box is
// within reach of some wall, so classes rarely repeat: these sweeps pin
// exactness at the walls, the translate test below pins sharing.
TEST_P(RegionMemoExhaustive, D2EveryBoxUpToWidth8) {
  const int64_t m = GetParam();
  Stencil<2> st{{3, 3}, 4, m};
  Stencil<2> wide{{4, 3}, 5, m};
  for (int64_t w = 1; w <= 8; ++w) {
    sweep_offsets<2>(st, {w, w, w, w});
    if (w < 8) sweep_offsets<2>(st, {w, w + 1, w + 1, w});
    if (w < 4) sweep_offsets<2>(wide, {w, w, w, w});
  }
}

// d=3: every cube of side up to 3 at every offset on a 2x2x2 mesh, and
// random boxes of sides up to 8 around a 3x3x3 one.
TEST_P(RegionMemoExhaustive, D3BoxesUpToWidth8) {
  const int64_t m = GetParam();
  Stencil<3> tiny{{2, 2, 2}, 3, m};
  for (int64_t w = 1; w <= 3; ++w)
    sweep_offsets<3>(tiny, {w, w, w, w, w, w});
  Stencil<3> st{{3, 3, 3}, 4, m};
  core::SplitMix64 rng(static_cast<std::uint64_t>(m) * 1009 + 7);
  for (int iter = 0; iter < 1500; ++iter) {
    std::array<int64_t, 6> lo, hi;
    for (int k = 0; k < 6; ++k) {
      auto [a, b] = coord_range(st, k);
      const int64_t side = 1 + static_cast<int64_t>(rng.next_below(8));
      lo[k] = a - side + static_cast<int64_t>(rng.next_below(
                             static_cast<std::uint64_t>(b - a + side + 1)));
      hi[k] = lo[k] + side;
    }
    Region<3> r(&st, lo, hi);
    const std::string bad = memo_mismatch(r);
    ASSERT_TRUE(bad.empty()) << bad << " disagrees for " << box_str(r);
  }
}

/// Random boxes of sides up to 8 around random vertices of `st` (so
/// none is empty), each checked with
/// its translates by every lattice vector (dt, dx) with |dt| <= 2 and
/// |dx_i| <= 1: translates that keep their distance to every wall
/// within reach (or stay beyond reach of it) share a class, so a key
/// that merged boxes with different answers disagrees here.
template <int D>
void sweep_translates(const Stencil<D>& st, int boxes, std::uint64_t seed) {
  constexpr int K = geom::kMono<D>;
  core::SplitMix64 rng(seed);
  for (int b = 0; b < boxes; ++b) {
    Point<D> p;
    p.t = static_cast<int64_t>(
        rng.next_below(static_cast<std::uint64_t>(st.horizon)));
    for (int i = 0; i < D; ++i)
      p.x[i] = static_cast<int64_t>(
          rng.next_below(static_cast<std::uint64_t>(st.extent[i])));
    const std::array<int64_t, K> c = geom::mono_coords<D>(p);
    std::array<int64_t, K> lo, side;
    for (int k = 0; k < K; ++k) {
      side[k] = 1 + static_cast<int64_t>(rng.next_below(8));
      lo[k] = c[k] - static_cast<int64_t>(rng.next_below(
                         static_cast<std::uint64_t>(side[k])));
    }
    std::array<int64_t, D + 1> v;  // (dt, dx_0, ..., dx_{D-1})
    v.fill(-1);
    v[0] = -2;
    for (;;) {
      std::array<int64_t, K> tlo, thi;
      for (int i = 0; i < D; ++i) {
        tlo[2 * i] = lo[2 * i] + v[0] + v[i + 1];
        tlo[2 * i + 1] = lo[2 * i + 1] + v[0] - v[i + 1];
      }
      for (int k = 0; k < K; ++k) thi[k] = tlo[k] + side[k];
      Region<D> r(&st, tlo, thi);
      const std::string bad = memo_mismatch(r);
      ASSERT_TRUE(bad.empty()) << bad << " disagrees for " << box_str(r);
      int j = 0;
      for (; j <= D; ++j) {
        if (++v[j] <= (j == 0 ? 2 : 1)) break;
        v[j] = j == 0 ? -2 : -1;
      }
      if (j > D) break;
    }
  }
}

TEST_P(RegionMemoExhaustive, TranslatesShareAnswers) {
  const int64_t m = GetParam();
  const geom::RegionMemoStats before2 = Region<2>::memo_stats();
  sweep_translates<2>(Stencil<2>{{18, 14}, 16, m}, 150,
                      static_cast<std::uint64_t>(m) * 31 + 1);
  EXPECT_GT(hits_since<2>(before2), 0u);
  const geom::RegionMemoStats before3 = Region<3>::memo_stats();
  sweep_translates<3>(Stencil<3>{{12, 10, 12}, 12, m}, 30,
                      static_cast<std::uint64_t>(m) * 37 + 2);
  EXPECT_GT(hits_since<3>(before3), 0u);
}

INSTANTIATE_TEST_SUITE_P(M, RegionMemoExhaustive,
                         ::testing::Values(1, 2, 3, 5));

// More classes than the memo holds, interleaved with re-queries of the
// first class: replacement evicts it (and frees its run lists) in
// between, and every answer, refilled or replayed, stays exact.
TEST(RegionMemo, RunListsSurviveReplacement) {
  using Memo = geom::detail::RegionMemo<1>;
  // One interior 3x3 diamond per memory depth m: the key holds m, so
  // every stencil is a class of its own, with short lists that are
  // stored.
  std::vector<Stencil<1>> stencils;
  const int64_t classes = 2 * static_cast<int64_t>(Memo::kCapacity);
  for (int64_t m = 1; m <= classes; ++m)
    stencils.push_back(Stencil<1>{{64}, 64, m});
  auto box = [&](std::size_t i) {
    return Region<1>(&stencils[i], {40, -4}, {43, -1});
  };
  const Region<1> first = box(0);
  ASSERT_EQ(runs_mismatch(first), "");
  const geom::RegionMemoStats before = Region<1>::memo_stats();
  std::uint64_t refills = 0;
  for (std::size_t i = 1; i < stencils.size(); ++i) {
    ASSERT_EQ(runs_mismatch(box(i)), "") << "m=" << i + 1;
    const std::uint64_t misses = Region<1>::memo_stats().list_misses;
    ASSERT_EQ(runs_mismatch(first), "") << "after m=" << i + 1;
    refills += Region<1>::memo_stats().list_misses - misses;
  }
  const geom::RegionMemoStats after = Region<1>::memo_stats();
  EXPECT_GT(refills, 0u) << "the first class was never replaced";
  EXPECT_GT(after.list_hits, before.list_hits);
}

namespace {

/// Whether a run walk's runs fit one list of sweeps. They are recorded
/// from the origin rather than a box's anchor, which moves every run by
/// the same vector and so changes no step and no continuation.
template <int D, class Walk>
bool fits_sweeps(const Walk& walk) {
  using Memo = geom::detail::RegionMemo<D>;
  typename Memo::Sweeps sweeps;
  bool fits = true;
  walk([&](const Point<D>& q, int64_t hi) {
    std::array<int64_t, Memo::kRunLen> v;
    v[0] = q.t;
    for (int i = 0; i < D; ++i) v[1 + i] = q.x[i];
    v[Memo::kRunLen - 1] = hi;
    fits = fits && Memo::record_run(v, sweeps);
  });
  return fits;
}

/// An interior d=2 octahedron of width 16 at m = 1: its retention list
/// takes 73 sweeps, its out-set 29 and its preboundary 32, all over the
/// cap.
Region<2> wide_octahedron(const Stencil<2>& st) {
  return Region<2>(&st, {40, -20, 40, -20}, {56, -4, 56, -4});
}

}  // namespace

// A list longer than the cap is not stored: a class the memo holds (a
// count query put it there, as the executor's do) marks it too long
// and walks directly on every later query, with the same answer.
TEST(RegionMemo, ListsOverTheCapWalkDirectly) {
  Stencil<2> st{{64, 64}, 64, 1};
  const Region<2> big = wide_octahedron(st);
  ASSERT_FALSE(fits_sweeps<2>([&](auto&& f) { big.outset_spans(f); }));
  ASSERT_FALSE(fits_sweeps<2>([&](auto&& f) { big.retention_spans(f); }));
  ASSERT_FALSE(fits_sweeps<2>([&](auto&& f) { big.preboundary_spans(f); }));
  ASSERT_GT(big.outset_count(), 0);
  const geom::RegionMemoStats before = Region<2>::memo_stats();
  EXPECT_EQ(runs_mismatch(big), "");
  const geom::RegionMemoStats after = Region<2>::memo_stats();
  // Three lists, each filled once and walked directly once more.
  EXPECT_EQ(after.list_hits, before.list_hits);
  EXPECT_EQ(after.list_misses - before.list_misses, 3u);
  EXPECT_EQ(after.list_long - before.list_long, 3u);
}

// A class the memo does not hold is not inserted by lists too long to
// store: on a fresh thread, whose memo starts empty, the same box's
// out-set and preboundary lists walk directly on every query.
TEST(RegionMemo, LongListsInsertNoClass) {
  Stencil<2> st{{64, 64}, 64, 1};
  const Region<2> big = wide_octahedron(st);
  const auto out = run_points<2>([&](auto&& f) { big.outset_spans(f); });
  const auto pre = run_points<2>([&](auto&& f) { big.preboundary_spans(f); });
  geom::RegionMemoStats before, after;
  bool same = true;
  std::thread([&] {
    before = Region<2>::memo_stats();
    for (int i = 0; i < 2; ++i) {
      same = same &&
             run_points<2>([&](auto&& f) { big.outset_runs(f); }) == out &&
             run_points<2>([&](auto&& f) { big.preboundary_runs(f); }) == pre;
    }
    after = Region<2>::memo_stats();
  }).join();
  EXPECT_TRUE(same);
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.list_long - before.list_long, 4u);
  EXPECT_EQ(after.list_misses, before.list_misses);
  EXPECT_EQ(after.list_hits, before.list_hits);
}

// record_run's encoding, read back through replay: runs stepping by a
// constant join one sweep, a same-row continuation splits the sweep's
// last run off, a step too wide for a field starts a sweep, and a run
// too wide for a field, or one sweep past the cap, makes the list too
// long.
TEST(RegionMemo, RecordRunSweepsAndFallbacks) {
  using Memo = geom::detail::RegionMemo<1>;
  using Run = std::array<int64_t, 3>;  // (dt, dx, dhi)
  auto replayed = [](const Memo::Sweeps& s) {
    std::vector<Run> runs;
    auto f = [&](const Point<1>& p, int64_t hi) {
      runs.push_back({p.t, p.x[0], hi});
    };
    Memo::replay(s, Point<1>{}, f);
    return runs;
  };
  Memo::Sweeps s;
  std::vector<Run> want = {{0, 0, 1}, {1, 1, 2}, {2, 2, 3}};
  for (const Run& r : want) ASSERT_TRUE(Memo::record_run(r, s));
  EXPECT_EQ(s.n, 1);
  // (2, 4, 6) continues (2, 2, 3) in its row.
  ASSERT_TRUE(Memo::record_run({2, 4, 6}, s));
  want.back() = {2, 2, 6};
  EXPECT_EQ(s.n, 2);
  EXPECT_EQ(replayed(s), want);
  // The merged run and the next form a two-run sweep.
  ASSERT_TRUE(Memo::record_run({3, 3, 7}, s));
  want.push_back({3, 3, 7});
  EXPECT_EQ(s.n, 2);
  // Both runs fit 16 bits, their step does not.
  for (const Run& r : {Run{3, 30000, 30001}, Run{4, -30000, -29999}}) {
    ASSERT_TRUE(Memo::record_run(r, s));
    want.push_back(r);
  }
  EXPECT_EQ(s.n, 4);
  EXPECT_EQ(replayed(s), want);
  EXPECT_FALSE(Memo::record_run({5, 40000, 40001}, s));
  Memo::Sweeps wide;
  EXPECT_FALSE(Memo::record_run({int64_t{1} << 33, 0, 0}, wide));
  // Runs (k, k^2, k^2) step by ever larger amounts: two per sweep.
  Memo::Sweeps capped;
  for (int64_t k = 0; k < 2 * Memo::kMaxSweeps; ++k)
    ASSERT_TRUE(Memo::record_run({k, k * k, k * k}, capped)) << k;
  EXPECT_EQ(capped.n, Memo::kMaxSweeps);
  const int64_t k = 2 * Memo::kMaxSweeps;
  EXPECT_FALSE(Memo::record_run({k, k * k, k * k}, capped));
}

// A probe outlives the replacement of its entry: queries of 2048 other
// classes between its uses push its class out of the memo, and each
// later use finds the class again, with the same counts, children and
// lists.
TEST(RegionMemo, StaleProbeRefindsItsClass) {
  using Memo = geom::detail::RegionMemo<1>;
  std::vector<Stencil<1>> stencils;
  const int64_t classes = 2 * static_cast<int64_t>(Memo::kCapacity);
  for (int64_t m = 1; m <= classes; ++m)
    stencils.push_back(Stencil<1>{{64}, 64, m});
  auto box = [&](std::size_t i) {
    return Region<1>(&stencils[i], {40, -4}, {43, -1});
  };
  const Region<1> first = box(0);
  const int64_t pre = first.preboundary_count_direct();
  const int64_t out = first.outset_count_direct();
  const std::vector<Region<1>> kids = first.split_direct();
  const auto out_pts = run_points<1>([&](auto&& f) { first.outset_spans(f); });
  const auto pre_pts = first.preboundary();
  const auto ret_pts =
      run_points<1>([&](auto&& f) { first.retention_spans(f); });
  Region<1>::Probe probe = first.probe();
  auto mismatch = [&]() -> std::string {
    if (first.preboundary_count(probe) != pre) return "preboundary_count";
    if (first.outset_count(probe) != out) return "outset_count";
    Region<1>::Children got;
    first.split_into(got, probe);
    if (!same_children<1>(got, kids)) return "split_into";
    if (run_points<1>([&](auto&& f) { first.outset_runs(probe, f); }) !=
        out_pts)
      return "outset_runs";
    if (run_points<1>([&](auto&& f) { first.preboundary_runs(probe, f); }) !=
        pre_pts)
      return "preboundary_runs";
    if (run_points<1>([&](auto&& f) { first.retention_runs(probe, f); }) !=
        ret_pts)
      return "retention_runs";
    return "";
  };
  ASSERT_EQ(mismatch(), "");
  std::uint64_t refills = 0;
  for (std::size_t i = 1; i < stencils.size(); ++i) {
    const Region<1> other = box(i);
    ASSERT_EQ(other.preboundary_count(), other.preboundary_count_direct());
    const std::uint64_t misses = Region<1>::memo_stats().misses;
    ASSERT_EQ(mismatch(), "") << "after m=" << i + 1;
    refills += Region<1>::memo_stats().misses - misses;
  }
  EXPECT_GT(refills, 0u) << "the probe's class was never replaced";
}

namespace {

/// A run walk's runs with same-row continuations merged: two walks
/// give equal lists iff they visit the same points in the same order,
/// and the lists are short where the points are many.
template <int D, class Walk>
std::vector<std::pair<Point<D>, int64_t>> merged_runs(const Walk& walk) {
  std::vector<std::pair<Point<D>, int64_t>> runs;
  walk([&](const Point<D>& q, int64_t hi) {
    if (!runs.empty()) {
      auto& [p, last] = runs.back();
      bool same_row = p.t == q.t;
      for (int i = 0; i + 1 < D; ++i) same_row = same_row && p.x[i] == q.x[i];
      if (same_row && last + 1 == q.x[D - 1]) {
        last = hi;
        return;
      }
    }
    runs.push_back({q, hi});
  });
  return runs;
}

}  // namespace

// Every d=1 list fits as sweeps: at each width 1..1024 and m in {1, 4,
// 64}, for an interior box and boxes cut by t = 0 and x = 0, by the
// right wall and by the horizon, every served list, filled and then
// replayed, equals its direct walk point for point and in order, and
// no query reads a list too long.
TEST(RegionMemoSweeps, D1ListsFitAtEveryWidth) {
  const geom::RegionMemoStats before = Region<1>::memo_stats();
  for (int64_t m : {1, 4, 64}) {
    const int64_t R = std::max<int64_t>(m, 2);
    const int64_t n = 1024 + 4 * R + 16;  // extent and horizon
    const Stencil<1> st{{n}, n, m};
    const int64_t t0 = 2 * R + 2;
    const int64_t x0 = n / 2;
    for (int64_t w = 1; w <= 1024; ++w) {
      const int64_t h = w / 2;
      const std::array<std::array<int64_t, 2>, 4> corners = {{
          {t0 + x0, t0 - x0},                      // interior
          {-h, -h},                                // t = 0 and x = 0
          {t0 + (n - 1) - h, t0 - (n - 1) - h},    // x = extent - 1
          {(n - 1) + x0 - h, (n - 1) - x0 - h},    // the horizon
      }};
      for (const auto& lo : corners) {
        const Region<1> r(&st, lo, {lo[0] + w, lo[1] + w});
        auto served_twice = [&](const auto& served, const auto& direct) {
          const auto want = merged_runs<1>(direct);
          return merged_runs<1>(served) == want &&
                 merged_runs<1>(served) == want;
        };
        ASSERT_TRUE(served_twice([&](auto&& f) { r.outset_runs(f); },
                                 [&](auto&& f) { r.outset_spans(f); }))
            << "outset: " << box_str(r);
        ASSERT_TRUE(served_twice([&](auto&& f) { r.preboundary_runs(f); },
                                 [&](auto&& f) { r.preboundary_spans(f); }))
            << "preboundary: " << box_str(r);
        if (w >= 2) {
          ASSERT_TRUE(served_twice([&](auto&& f) { r.retention_runs(f); },
                                   [&](auto&& f) { r.retention_spans(f); }))
              << "retention: " << box_str(r);
        }
      }
    }
  }
  const geom::RegionMemoStats after = Region<1>::memo_stats();
  EXPECT_EQ(after.list_long, before.list_long);
  EXPECT_GT(after.list_hits, before.list_hits);
}

namespace {

/// The recursion nodes of `r` down to width 1, in split order.
template <int D>
void collect_nodes(const Region<D>& r, std::vector<Region<D>>& out) {
  out.push_back(r);
  if (r.width() < 2) return;
  typename Region<D>::Children kids;
  r.split_into(kids);
  for (const Region<D>& k : kids) collect_nodes(k, out);
}

/// (preboundary count, out-set count, nonempty children) of `r`.
template <int D>
std::array<int64_t, 3> memo_answers(const Region<D>& r) {
  typename Region<D>::Children kids;
  if (r.width() >= 2) r.split_into(kids);
  return {r.preboundary_count(), r.outset_count(),
          static_cast<int64_t>(kids.size())};
}

}  // namespace

// An interior octahedron's recursion is nearly all translates, so the
// memo must serve most queries; a fast path that never hits fails here.
TEST(RegionMemo, ServesHitsOnInteriorRecursion) {
  Stencil<2> st{{40, 40}, 40, 1};
  // t in [5, 20], x_i in [7, 23]: reach-deep clear of every wall.
  Region<2> root(&st, {20, -10, 20, -10}, {36, 6, 36, 6});
  std::vector<Region<2>> nodes;
  collect_nodes(root, nodes);
  const geom::RegionMemoStats before = Region<2>::memo_stats();
  for (const Region<2>& r : nodes) {
    EXPECT_EQ(r.preboundary_count(), r.preboundary_count_direct());
    EXPECT_EQ(r.outset_count(), r.outset_count_direct());
  }
  const geom::RegionMemoStats after = Region<2>::memo_stats();
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  EXPECT_EQ(hits + misses, 2 * nodes.size());
  EXPECT_GT(hits, 10 * misses) << "hits " << hits << " misses " << misses;
  EXPECT_LE(after.entries, geom::detail::RegionMemo<2>::kCapacity);
}

// Pool threads fill their own memos concurrently; the answers must not
// depend on which thread (or how many) computed them.
TEST(RegionMemo, AnswersIndependentOfThreadCount) {
  Stencil<2> st{{24, 24}, 24, 2};
  std::vector<Region<2>> nodes;
  // An interior box, and one cut by t = 0 and both x walls.
  collect_nodes(Region<2>(&st, {12, -4, 12, -4}, {20, 4, 20, 4}), nodes);
  collect_nodes(Region<2>(&st, {-4, -12, -4, -12}, {12, 4, 12, 4}), nodes);
  std::vector<std::array<int64_t, 3>> want;
  for (const Region<2>& r : nodes) {
    const int64_t kids =
        r.width() >= 2 ? static_cast<int64_t>(r.split_direct().size()) : 0;
    want.push_back(
        {r.preboundary_count_direct(), r.outset_count_direct(), kids});
  }
  for (int threads : {1, 4}) {
    engine::Pool pool(threads);
    std::vector<std::array<int64_t, 3>> got(nodes.size());
    pool.parallel_for(nodes.size(),
                      [&](std::size_t i) { got[i] = memo_answers(nodes[i]); });
    EXPECT_EQ(got, want) << "threads=" << threads;
  }
}
