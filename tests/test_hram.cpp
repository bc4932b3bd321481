#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/expect.hpp"
#include "hram/access_fn.hpp"
#include "hram/hram.hpp"
#include "sim/naive.hpp"
#include "workload/rules.hpp"

using bsmp::hram::AccessFn;
using bsmp::hram::HRam;
namespace core = bsmp::core;

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

TEST(AccessFn, UnitIsAlwaysOne) {
  AccessFn f = AccessFn::unit();
  EXPECT_DOUBLE_EQ(f(0), 1.0);
  EXPECT_DOUBLE_EQ(f(1u << 20), 1.0);
}

TEST(AccessFn, HierarchicalD1) {
  // d=1, m=4: f(x) = max(1, x/4).
  AccessFn f = AccessFn::hierarchical(1, 4.0);
  EXPECT_DOUBLE_EQ(f(0), 1.0);
  EXPECT_DOUBLE_EQ(f(4), 1.0);
  EXPECT_DOUBLE_EQ(f(8), 2.0);
  EXPECT_DOUBLE_EQ(f(400), 100.0);
}

TEST(AccessFn, HierarchicalD2) {
  // d=2, m=1: f(x) = max(1, sqrt(x)).
  AccessFn f = AccessFn::hierarchical(2, 1.0);
  EXPECT_DOUBLE_EQ(f(100), 10.0);
  EXPECT_DOUBLE_EQ(f(0), 1.0);
}

TEST(AccessFn, HierarchicalD3) {
  AccessFn f = AccessFn::hierarchical(3, 1.0);
  EXPECT_DOUBLE_EQ(f(1000), 10.0);
}

TEST(AccessFn, PowerLaw) {
  AccessFn f = AccessFn::power(2.0, 0.5);
  EXPECT_DOUBLE_EQ(f(100), 20.0);
  EXPECT_DOUBLE_EQ(f(0), 1.0);  // clamped from below
}

TEST(AccessFn, RejectsBadParameters) {
  EXPECT_THROW(AccessFn::hierarchical(0, 1.0), bsmp::precondition_error);
  EXPECT_THROW(AccessFn::hierarchical(4, 1.0), bsmp::precondition_error);
  EXPECT_THROW(AccessFn::hierarchical(1, 0.5), bsmp::precondition_error);
  EXPECT_THROW(AccessFn::power(-1.0, 0.5), bsmp::precondition_error);
}

TEST(AccessFn, BlockVsPipelined) {
  AccessFn f = AccessFn::hierarchical(1, 1.0);  // f(x) = max(1, x)
  // 10 words ending at address 100: per-word latency vs pipelined.
  EXPECT_DOUBLE_EQ(f.block(100, 10), 1000.0);
  EXPECT_DOUBLE_EQ(f.block_pipelined(100, 10), 109.0);
  EXPECT_DOUBLE_EQ(f.block_pipelined(100, 0), 0.0);
}

TEST(HRam, ReadWriteChargesAccessCost) {
  HRam ram(128, AccessFn::hierarchical(1, 1.0));
  ram.write(10, 7);
  EXPECT_EQ(ram.read(10), 7u);
  // write cost f(10)=10, read cost 10.
  EXPECT_DOUBLE_EQ(ram.ledger().cost(core::CostKind::kLocalAccess), 20.0);
  EXPECT_EQ(ram.peak_addr(), 10u);
}

TEST(HRam, OutOfRangeThrows) {
  HRam ram(16, AccessFn::unit());
  EXPECT_THROW(ram.read(16), bsmp::precondition_error);
  EXPECT_THROW(ram.write(99, 1), bsmp::precondition_error);
}

TEST(HRam, BlockCopyMovesDataAndCharges) {
  HRam ram(256, AccessFn::unit());
  for (std::size_t i = 0; i < 8; ++i) ram.write(i, i + 1);
  double before = ram.ledger().total();
  ram.block_copy(0, 100, 8);
  EXPECT_GT(ram.ledger().total(), before);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(ram.read(100 + i), i + 1);
}

TEST(HRam, PipelinedBlockCheaper) {
  HRam plain(1 << 12, AccessFn::hierarchical(1, 1.0), false);
  HRam piped(1 << 12, AccessFn::hierarchical(1, 1.0), true);
  plain.touch_block(1000, 100);
  piped.touch_block(1000, 100);
  EXPECT_GT(plain.ledger().total(), piped.ledger().total());
}

TEST(HRam, TouchReturnsCharge) {
  HRam ram(64, AccessFn::hierarchical(1, 2.0));
  EXPECT_DOUBLE_EQ(ram.touch(32), 16.0);
  EXPECT_DOUBLE_EQ(ram.ledger().total(), 16.0);
}

TEST(AccessFn, D1IdentityIsExact) {
  // operator() skips pow for d = 1; this pins the identity it relies
  // on, pow(q, 1.0) == q, against this libm. The exponent is volatile
  // so the compiler cannot fold pow(q, 1.0) to q itself.
  volatile double one = 1.0;
  for (double m : {1.0, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0}) {
    AccessFn f = AccessFn::hierarchical(1, m);
    std::uint64_t mismatches = 0, first = 0;
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << 20); ++x) {
      double want = std::max(1.0, std::pow(static_cast<double>(x) / m, one));
      if (bits(f(x)) != bits(want) && mismatches++ == 0) first = x;
    }
    EXPECT_EQ(mismatches, 0u) << "m=" << m << ", first at x=" << first;
  }
}

TEST(AccessFn, HierarchicalD2D3ArePowBitForBit) {
  // d = 2 and d = 3 keep pow: sqrt(q) differs from pow(q, 0.5) in the
  // last bit at some q (two of these addresses at m = 1), which would
  // move charged bits.
  volatile double one = 1.0;
  for (int d : {2, 3})
    for (double m : {1.0, 4.0, 8.0, 64.0}) {
      AccessFn f = AccessFn::hierarchical(d, m);
      const double e = one / d;
      std::uint64_t mismatches = 0;
      for (std::uint64_t x = 0; x < 4096; ++x)
        if (bits(f(x)) !=
            bits(std::max(1.0, std::pow(static_cast<double>(x) / m, e))))
          ++mismatches;
      EXPECT_EQ(mismatches, 0u) << "d=" << d << " m=" << m;
    }
}

TEST(HRam, ChargesAccessFnBitsAtEveryAddress) {
  struct Kind {
    std::string name;
    AccessFn f;
  };
  std::vector<Kind> kinds{{"unit", AccessFn::unit()},
                          {"power a=1.5 alpha=0.5", AccessFn::power(1.5, 0.5)},
                          {"power a=0.25 alpha=1", AccessFn::power(0.25, 1.0)}};
  for (int d = 1; d <= 3; ++d)
    for (double m : {1.0, 4.0, 8.0, 64.0})
      kinds.push_back({"d=" + std::to_string(d) + " m=" + std::to_string(m),
                       AccessFn::hierarchical(d, m)});

  constexpr std::size_t kSize = 4096;
  enum Op { kRead, kWrite, kTouch };
  // The charge of one access, read off a reset ledger (0 + c == c).
  auto charge = [](HRam& ram, Op op, std::size_t a) {
    ram.ledger().reset();
    if (op == kRead) ram.read(a);
    if (op == kWrite) ram.write(a, a);
    if (op == kTouch) {
      const core::Cost c = ram.touch(a);
      EXPECT_EQ(bits(c), bits(ram.ledger().cost(core::CostKind::kLocalAccess)));
    }
    return ram.ledger().cost(core::CostKind::kLocalAccess);
  };
  for (const auto& k : kinds) {
    // Each op makes the first access to every address of its own RAM,
    // high addresses first; then every op repeats every address.
    for (Op first : {kRead, kWrite, kTouch}) {
      HRam ram(kSize, k.f);
      std::uint64_t mismatches = 0;
      std::size_t where = 0;
      auto check = [&](Op op, std::size_t a) {
        if (bits(charge(ram, op, a)) != bits(k.f(a)) && mismatches++ == 0)
          where = a;
      };
      for (std::size_t a = kSize; a-- > 0;) check(first, a);
      for (Op op : {kRead, kWrite, kTouch})
        for (std::size_t a = 0; a < kSize; ++a) check(op, a);
      EXPECT_EQ(mismatches, 0u)
          << k.name << ", first op " << first << ", first at " << where;
      EXPECT_EQ(ram.peak_addr(), kSize - 1);
    }
  }
}

TEST(HRam, BlockCopyRejectsOverlap) {
  HRam ram(256, AccessFn::hierarchical(1, 1.0));
  for (std::size_t i = 0; i < 16; ++i) ram.write(i, i + 1);
  ram.ledger().reset();
  // src < dst < src + len: a forward copy would smear src's first word.
  EXPECT_THROW(ram.block_copy(0, 4, 8), bsmp::precondition_error);
  // dst < src < dst + len, and the identical range.
  EXPECT_THROW(ram.block_copy(4, 0, 8), bsmp::precondition_error);
  EXPECT_THROW(ram.block_copy(3, 3, 1), bsmp::precondition_error);
  EXPECT_EQ(ram.ledger().total(), 0.0);
  EXPECT_EQ(ram.peak_addr(), 15u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(ram.read(i), i + 1);
  // Adjacent ranges do not overlap.
  ram.block_copy(0, 8, 8);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(ram.read(8 + i), i + 1);
}

TEST(HRam, NaiveD2ChargesAccessFnBits) {
  // simulate_naive serves its local charges from a cost table; replay
  // its per-vertex charges with AccessFn::operator() in the same order
  // and compare the kLocalAccess slot bit for bit.
  using namespace bsmp;
  const std::int64_t side = 8, n = side * side, T = 5;
  auto g = workload::make_mix_guest<2>({side, side}, T, 1, 21);
  for (std::int64_t p : {1, 4}) {
    machine::MachineSpec host;
    host.d = 2;
    host.n = n;
    host.p = p;
    host.m = 1;
    const AccessFn f = host.access_fn();
    const auto& st = g.stencil;
    const std::int64_t proc_side = host.proc_side();
    core::CostLedger want;
    for (std::int64_t t = 0; t < T; ++t)
      for (std::int64_t idx = 0; idx < n; ++idx) {
        auto x = sim::detail::node_coords<2>(st, idx);
        auto pl = sim::detail::place_node<2>(st, proc_side, x);
        core::Cost c = 0;
        if (t == 0) {
          c += f(static_cast<std::uint64_t>(pl.local_index));
        } else {
          c += 2.0 * f(static_cast<std::uint64_t>(pl.local_index));
          for (int i = 0; i < 2; ++i)
            for (int sgn = 0; sgn < 2; ++sgn) {
              auto q = x;
              q[i] += (sgn == 0 ? -1 : 1);
              if (!st.in_space(q)) continue;
              auto qpl = sim::detail::place_node<2>(st, proc_side, q);
              if (qpl.proc == pl.proc)
                c += f(static_cast<std::uint64_t>(qpl.local_index));
            }
        }
        if (c > 0) want.charge(core::CostKind::kLocalAccess, c);
      }
    auto res = sim::simulate_naive<2>(g, host);
    EXPECT_EQ(bits(res.ledger.cost(core::CostKind::kLocalAccess)),
              bits(want.cost(core::CostKind::kLocalAccess)))
        << "p=" << p;
    EXPECT_EQ(res.ledger.events(core::CostKind::kLocalAccess),
              want.events(core::CostKind::kLocalAccess))
        << "p=" << p;
  }
}
