// Reproduces the paper's decomposition geometry:
//  * the 4-way diamond split used by Theorem 2;
//  * Figure 3(a): the octahedron splits into 14 subdomains — 6
//    octahedra and 8 tetrahedra;
//  * Figure 3(b): the tetrahedron splits into 5 subdomains — 1
//    octahedron and 4 tetrahedra;
//  * Figure 1: the 5-piece ordered partition of the d=1 volume V;
// and verifies all of them against Definition 4 (topological
// partition) and Definition 5 (convexity) by brute force.
#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "dag/explicit_dag.hpp"
#include "geom/figures.hpp"
#include "geom/region.hpp"

using namespace bsmp;
using geom::DomainClass;
using geom::Region;
using geom::Stencil;

namespace {

template <int D>
dag::PointSet<D> to_set(const Region<D>& r) {
  dag::PointSet<D> s;
  for (const auto& p : r.points()) s.insert(p);
  return s;
}

template <int D>
void expect_topological_partition(const Stencil<D>& st, const Region<D>& u,
                                  const std::vector<Region<D>>& parts) {
  dag::ExplicitDag<D> g(st);
  std::vector<dag::PointSet<D>> psets;
  for (const auto& part : parts) psets.push_back(to_set(part));
  EXPECT_TRUE(g.is_topological_partition(to_set(u), psets));
}

}  // namespace

TEST(DiamondSplit, FourChildrenOfQuarterSize) {
  Stencil<1> st{{64}, 64, 1};
  Region<1> d = geom::make_diamond(&st, 24, -16, 32);
  auto kids = d.split();
  ASSERT_EQ(kids.size(), 4u);
  for (const auto& k : kids) {
    EXPECT_LE(k.count(), d.count() / 4 + 32);  // |Ui| <= delta |U|, delta=1/4
    EXPECT_EQ(k.width(), 16);
  }
  // Child sizes sum to the parent.
  int64_t total = 0;
  for (const auto& k : kids) total += k.count();
  EXPECT_EQ(total, d.count());
}

TEST(DiamondSplit, IsTopologicalPartition) {
  for (int64_t m : {1, 2}) {
    Stencil<1> st{{16}, 16, m};
    Region<1> d = geom::make_diamond(&st, 4, -4, 8);
    ASSERT_FALSE(d.empty());
    expect_topological_partition(st, d, d.split());
  }
}

TEST(DiamondSplit, ChildrenAreConvex) {
  Stencil<1> st{{12}, 12, 1};
  Region<1> d = geom::make_diamond(&st, 2, -4, 8);
  dag::ExplicitDag<1> g(st);
  EXPECT_TRUE(g.is_convex(to_set(d)));
  for (const auto& k : d.split()) EXPECT_TRUE(g.is_convex(to_set(k)));
}

TEST(Fig3a, OctahedronSplitsInto14) {
  // P splits into 14 subdomains: 6 octahedra + 8 tetrahedra, with
  // |P(r/2)| = |P(r)|/8 and |W(r/2)| = |P(r)|/32 (Figure 3a).
  Stencil<2> st{{32, 32}, 32, 1};
  Region<2> p = geom::make_octahedron(&st, 8, -8, 8, -8, 16);
  ASSERT_FALSE(p.empty());
  auto kids = p.split();
  EXPECT_EQ(kids.size(), 14u);
  int octa = 0, tetra = 0;
  for (const auto& k : kids) {
    switch (geom::classify_d2(k)) {
      case DomainClass::kOctahedron: ++octa; break;
      case DomainClass::kTetrahedron: ++tetra; break;
      case DomainClass::kOther: FAIL() << "unexpected child class";
    }
  }
  EXPECT_EQ(octa, 6);
  EXPECT_EQ(tetra, 8);
  // Size ratios (up to lattice rounding).
  double P = static_cast<double>(p.count());
  for (const auto& k : kids) {
    double c = static_cast<double>(k.count());
    if (geom::classify_d2(k) == DomainClass::kOctahedron)
      EXPECT_NEAR(c / P, 1.0 / 8.0, 0.07);
    else
      EXPECT_NEAR(c / P, 1.0 / 32.0, 0.05);
  }
}

TEST(Fig3a, OctahedronSplitIsTopologicalPartition) {
  Stencil<2> st{{16, 16}, 16, 1};
  Region<2> p = geom::make_octahedron(&st, 4, -4, 4, -4, 8);
  ASSERT_FALSE(p.empty());
  expect_topological_partition(st, p, p.split());
}

TEST(Fig3b, TetrahedronSplitsInto5) {
  // W splits into 5 subdomains: 1 octahedron + 4 tetrahedra, with
  // |P(r/2)| = |W(r)|/2 and |W(r/2)| = |W(r)|/8 (Figure 3b).
  Stencil<2> st{{32, 32}, 32, 1};
  Region<2> w = geom::make_tetrahedron(&st, 16, -8, 8, -16, 16);
  ASSERT_FALSE(w.empty());
  auto kids = w.split();
  EXPECT_EQ(kids.size(), 5u);
  int octa = 0, tetra = 0;
  for (const auto& k : kids) {
    switch (geom::classify_d2(k)) {
      case DomainClass::kOctahedron: ++octa; break;
      case DomainClass::kTetrahedron: ++tetra; break;
      case DomainClass::kOther: FAIL() << "unexpected child class";
    }
  }
  EXPECT_EQ(octa, 1);
  EXPECT_EQ(tetra, 4);
  double W = static_cast<double>(w.count());
  for (const auto& k : kids) {
    double c = static_cast<double>(k.count());
    if (geom::classify_d2(k) == DomainClass::kOctahedron)
      EXPECT_NEAR(c / W, 1.0 / 2.0, 0.1);
    else
      EXPECT_NEAR(c / W, 1.0 / 8.0, 0.08);
  }
}

TEST(Fig3b, TetrahedronSplitIsTopologicalPartition) {
  Stencil<2> st{{16, 16}, 16, 1};
  Region<2> w = geom::make_tetrahedron(&st, 8, -4, 4, -8, 8);
  ASSERT_FALSE(w.empty());
  expect_topological_partition(st, w, w.split());
}

TEST(Fig3, SeparatorSizeMatchesPaper) {
  // Γin(P(sqrt(r))) ~ 2 * 3^(1/3) |P|^(2/3); we check the exponent by
  // doubling r and expecting the preboundary to grow ~4x.
  Stencil<2> st{{64, 64}, 64, 1};
  Region<2> p1 = geom::make_octahedron(&st, 16, -16, 16, -16, 8);
  Region<2> p2 = geom::make_octahedron(&st, 16, -16, 16, -16, 16);
  double g1 = static_cast<double>(p1.preboundary().size());
  double g2 = static_cast<double>(p2.preboundary().size());
  EXPECT_GT(g2 / g1, 2.5);
  EXPECT_LT(g2 / g1, 5.5);
}

TEST(Fig1, FivePieceOrderedPartitionOfV) {
  Stencil<1> st{{12}, 12, 1};
  auto parts = geom::fig1_partition(&st);
  ASSERT_EQ(parts.size(), 5u);
  // Pieces are disjoint, cover V, and form a topological partition.
  dag::ExplicitDag<1> g(st);
  dag::PointSet<1> v;
  g.for_each_vertex([&](const geom::Point<1>& p) { v.insert(p); });
  std::vector<dag::PointSet<1>> psets;
  std::size_t total = 0;
  for (const auto& part : parts) {
    psets.push_back(to_set(part));
    total += psets.back().size();
  }
  EXPECT_EQ(total, v.size());
  EXPECT_TRUE(g.is_topological_partition(v, psets));
}

TEST(Fig1, CentralPieceIsTheFullDiamond) {
  Stencil<1> st{{16}, 16, 1};
  auto parts = geom::fig1_partition(&st);
  // U3 is a full (unclipped) D(n): its count is ~n^2/2, the largest.
  int64_t central = parts[2].count();
  for (std::size_t i = 0; i < parts.size(); ++i)
    EXPECT_LE(parts[i].count(), central) << i;
  EXPECT_NEAR(static_cast<double>(central), 16.0 * 16.0 / 2.0, 17.0);
}

TEST(Fig1, RequiresMatchingStencil) {
  Stencil<1> bad{{12}, 10, 1};
  EXPECT_THROW(geom::fig1_partition(&bad), bsmp::precondition_error);
}

TEST(Split3D, SectionSixConjectureDomainsSplitTopologically) {
  // The d=3 analogue (Section 6 open question): six monotone
  // coordinates; the box split is still a topological partition.
  Stencil<3> st{{6, 6, 6}, 6, 1};
  Region<3> r(&st, {1, -3, 1, -3, 1, -3}, {7, 3, 7, 3, 7, 3});
  ASSERT_FALSE(r.empty());
  expect_topological_partition(st, r, r.split());
}

TEST(SplitOrder, ChildrenSortedByUpperHalves) {
  Stencil<1> st{{16}, 16, 1};
  Region<1> d = geom::make_diamond(&st, 4, -4, 8);
  auto kids = d.split();
  ASSERT_EQ(kids.size(), 4u);
  // First child holds the bottom vertex, last the top vertex.
  auto bottom = d.first_point();
  ASSERT_TRUE(bottom.has_value());
  EXPECT_TRUE(kids[0].contains(*bottom));
}

TEST(Split3D, OctahedronAnalogSplitsInto46) {
  // Section 6 leaves open "the development of a suitable topological
  // separator for four-dimensional domains". In monotone coordinates
  // the d=3 analogue of the octahedron is a 6-interval box with equal
  // sum ranges; splitting it at midpoints gives 2^6 = 64 candidate
  // children of which exactly 46 are non-empty: the three half-sums
  // (one per spatial dimension) must be pairwise within one of each
  // other — sum over feasible triples of multiplicities (1,2,1)^3 =
  // 27 + 27 - 8. Ten children have all three sums equal (the
  // octahedron-analogues, sizes |U|/16 and |U|/16/...), the remaining
  // 36 are the d=3 tetrahedron-analogues.
  geom::Stencil<3> st{{16, 16, 16}, 16, 1};
  Region<3> p(&st, {4, -4, 4, -4, 4, -4}, {12, 4, 12, 4, 12, 4});
  ASSERT_FALSE(p.empty());
  auto kids = p.split();
  EXPECT_EQ(kids.size(), 46u);
  // Classify by the offsets of the three sum ranges.
  int all_equal = 0;
  for (const auto& k : kids) {
    int64_t s0 = k.lo()[0] + k.lo()[1];
    int64_t s1 = k.lo()[2] + k.lo()[3];
    int64_t s2 = k.lo()[4] + k.lo()[5];
    if (s0 == s1 && s1 == s2) ++all_equal;
  }
  EXPECT_EQ(all_equal, 10);
  // And the split is a topological partition (checked exhaustively at
  // this size elsewhere; here check sizes cover the parent).
  int64_t total = 0;
  for (const auto& k : kids) total += k.count();
  EXPECT_EQ(total, p.count());
}

TEST(Split3D, D3SplitIsTopologicalPartition) {
  geom::Stencil<3> st{{8, 8, 8}, 8, 1};
  Region<3> p(&st, {2, -2, 2, -2, 2, -2}, {6, 2, 6, 2, 6, 2});
  ASSERT_FALSE(p.empty());
  expect_topological_partition(st, p, p.split());
}

// The executor and the regime-1 relocation split into an inline child
// array (Region::split_into, served by the translation-class memo).
// Its children must be the paper's pieces, in split()'s order, for the
// Fig. 3 domains and for fuzzed boxes — compared against the direct
// split the memo is filled from.
namespace {

template <int D>
void expect_inline_split_matches(const Region<D>& r) {
  typename Region<D>::Children kids;
  r.split_into(kids);
  const std::vector<Region<D>> vec = r.split();
  const std::vector<Region<D>> direct = r.split_direct();
  ASSERT_EQ(kids.size(), direct.size());
  ASSERT_EQ(vec.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(kids[i].lo(), direct[i].lo()) << i;
    EXPECT_EQ(kids[i].hi(), direct[i].hi()) << i;
    EXPECT_EQ(vec[i].lo(), direct[i].lo()) << i;
    EXPECT_EQ(vec[i].hi(), direct[i].hi()) << i;
    EXPECT_EQ(&kids[i].stencil(), &r.stencil());
  }
}

template <int D>
std::size_t inline_split_size(const Region<D>& r) {
  typename Region<D>::Children kids;
  r.split_into(kids);
  return kids.size();
}

}  // namespace

TEST(InlineSplit, Fig3ChildCounts) {
  Stencil<2> st{{32, 32}, 32, 1};
  Region<2> p = geom::make_octahedron(&st, 8, -8, 8, -8, 16);
  Region<2> w = geom::make_tetrahedron(&st, 16, -8, 8, -16, 16);
  geom::Stencil<3> st3{{16, 16, 16}, 16, 1};
  Region<3> p3(&st3, {4, -4, 4, -4, 4, -4}, {12, 4, 12, 4, 12, 4});
  // Twice each: the second call is served by the memo.
  for (int rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(inline_split_size(p), 14u);
    EXPECT_EQ(inline_split_size(w), 5u);
    EXPECT_EQ(inline_split_size(p3), 46u);
    expect_inline_split_matches(p);
    expect_inline_split_matches(w);
    expect_inline_split_matches(p3);
  }
}

TEST(InlineSplit, MatchesSplitOnFuzzedRegions) {
  core::SplitMix64 rng(20260417);
  auto fuzz = [&rng]<int D>(const Stencil<D>& st) {
    constexpr int K = geom::kMono<D>;
    std::array<int64_t, K> lo, hi;
    for (int k = 0; k < K; ++k) {
      const int64_t span = st.horizon + st.extent[k / 2];
      lo[k] = static_cast<int64_t>(rng.next_below(
                  static_cast<std::uint64_t>(span + 4))) -
              (k % 2 == 0 ? 2 : st.extent[k / 2] + 2);
      hi[k] = lo[k] + 2 + static_cast<int64_t>(rng.next_below(12));
    }
    return Region<D>(&st, lo, hi);
  };
  for (int64_t m : {1, 2, 4}) {
    Stencil<1> s1{{20}, 20, m};
    Stencil<2> s2{{10, 9}, 12, m};
    Stencil<3> s3{{5, 5, 4}, 6, m};
    for (int iter = 0; iter < 200; ++iter) {
      expect_inline_split_matches(fuzz(s1));
      expect_inline_split_matches(fuzz(s2));
      expect_inline_split_matches(fuzz(s3));
    }
  }
}
