// The concrete executor: Proposition 2 with literal memory. Its values
// must equal the guest's, its addresses must stay inside the window
// S(U), and its charged time must agree with the abstract executor's
// up to a constant — grounding the abstract cost accounting.
#include <gtest/gtest.h>

#include "geom/tiling.hpp"
#include "sep/concrete.hpp"
#include "sep/executor.hpp"
#include "sim/observe.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"

using namespace bsmp;
using AddrMap =
    std::unordered_map<geom::Point<1>, std::size_t, geom::PointHash<1>>;

namespace {

/// Drive the concrete executor over the whole volume, transporting
/// values between tiles through a host-side store (the "rest of the
/// machine's memory"). Returns that store; the HRam is the caller's.
template <int D>
sep::StagingStore<D> run_concrete(const sep::Guest<D>& guest,
                                  hram::HRam& ram, int64_t tile_w,
                                  int64_t leaf_w) {
  sep::ConcreteExecutor<D> exec(&guest, &ram, leaf_w);
  sep::StagingStore<D> transported(&guest.stencil);
  geom::TileGrid<D> grid(&guest.stencil, tile_w);
  for (const auto& wave : grid.wavefronts()) {
    for (const auto& tile : wave) {
      std::size_t S = tile.width() <= leaf_w
                          ? exec.leaf_space_bound(tile.width())
                          : exec.space_bound(tile.width());
      auto gin = tile.preboundary();
      std::unordered_map<geom::Point<D>, std::size_t, geom::PointHash<D>>
          pre;
      std::size_t addr = S - 1;
      for (const auto& q : gin) {
        ram.write(addr, transported.at(q));
        pre.emplace(q, addr);
        --addr;
      }
      auto out = exec.execute(tile, pre);
      for (const auto& [q, a] : out) transported.insert(q, ram.read(a));
    }
  }
  return transported;
}

}  // namespace

TEST(Concrete, ValuesMatchReference1D) {
  for (int64_t m : {1, 2, 3}) {
    for (int64_t tile : {4, 8}) {
      auto g = workload::make_mix_guest<1>({10}, 14, m, 3 * m + tile);
      auto ref = sim::reference_run<1>(g);
      hram::HRam ram(1 << 14, hram::AccessFn::hierarchical(1, (double)m));
      auto got = run_concrete<1>(g, ram, tile, m);
      auto fin = sim::extract_final<1>(g.stencil, got);
      EXPECT_TRUE(sim::same_values<1>(fin, ref.final_values))
          << "m=" << m << " tile=" << tile;
    }
  }
}

TEST(Concrete, ValuesMatchReference2D) {
  auto g = workload::make_mix_guest<2>({4, 4}, 6, 1, 17);
  auto ref = sim::reference_run<2>(g);
  hram::HRam ram(1 << 16, hram::AccessFn::hierarchical(2, 1.0));
  auto got = run_concrete<2>(g, ram, 4, 1);
  auto fin = sim::extract_final<2>(g.stencil, got);
  EXPECT_TRUE(sim::same_values<2>(fin, ref.final_values));
}

TEST(Concrete, PeakAddressWithinWindow) {
  auto g = workload::make_mix_guest<1>({16}, 16, 1, 9);
  hram::HRam ram(1 << 16, hram::AccessFn::hierarchical(1, 1.0));
  sep::ConcreteExecutor<1> exec(&g, &ram, 1);
  run_concrete<1>(g, ram, 16, 1);
  // The largest window in play is S(tile_width = 16).
  EXPECT_LT(ram.peak_addr(), exec.space_bound(16));
}

TEST(Concrete, ChargesAgreeWithAbstractExecutor) {
  // Same computation through both executors: total charged time within
  // a constant band (they use the same f and the same recursion, but
  // the concrete one pays exact per-address costs).
  for (int64_t n : {8, 16, 24}) {
    auto g = workload::make_mix_guest<1>({n}, n, 1, n);

    hram::HRam ram(1 << 18, hram::AccessFn::hierarchical(1, 1.0));
    run_concrete<1>(g, ram, n, 1);
    double concrete = ram.ledger().total();

    sep::ExecutorConfig cfg;
    cfg.leaf_width = 1;
    cfg.f = hram::AccessFn::hierarchical(1, 1.0);
    sep::Executor<1> exec(&g, cfg);
    core::CostLedger ledger;
    exec.set_ledger(&ledger);
    geom::TileGrid<1> grid(&g.stencil, n);
    sep::StagingStore<1> staging(&g.stencil);
    for (const auto& wave : grid.wavefronts())
      for (const auto& t : wave) exec.execute(t, staging);
    double abstract = ledger.total();

    double ratio = concrete / abstract;
    EXPECT_GT(ratio, 0.02) << n;
    EXPECT_LT(ratio, 5.0) << n;
  }
}

TEST(Concrete, SortsThroughLiteralMemory) {
  int64_t n = 16;
  sep::Guest<1> g;
  g.stencil = geom::Stencil<1>{{n}, n + 1, 1};
  g.rule = workload::sort_rule(n);
  g.input = [n](const std::array<int64_t, 1>& x, int64_t) -> sep::Word {
    return static_cast<sep::Word>((x[0] * 7 + 3) % n + 1);
  };
  hram::HRam ram(1 << 14, hram::AccessFn::hierarchical(1, 1.0));
  auto got = run_concrete<1>(g, ram, n, 1);
  std::vector<sep::Word> arr;
  for (int64_t x = 0; x < n; ++x)
    arr.push_back(got.at(geom::Point<1>{{x}, n}));
  EXPECT_TRUE(std::is_sorted(arr.begin(), arr.end()));
}

TEST(Concrete, RejectsBadParking) {
  auto g = workload::make_mix_guest<1>({16}, 16, 1, 1);
  hram::HRam ram(1 << 14, hram::AccessFn::unit());
  sep::ConcreteExecutor<1> exec(&g, &ram, 1);
  geom::Region<1> d(&g.stencil, {8, -4}, {16, 4});
  ASSERT_FALSE(d.empty());
  AddrMap pre;
  // Park a preboundary value at address 0 — violates the Prop-2 layout
  // (must sit at the top of the window).
  auto gin = d.preboundary();
  ASSERT_FALSE(gin.empty());
  for (const auto& q : gin) pre.emplace(q, 0);
  EXPECT_THROW(exec.execute(d, pre), bsmp::invariant_error);
}

TEST(Concrete, HRamTooSmallIsReported) {
  auto g = workload::make_mix_guest<1>({64}, 64, 1, 1);
  hram::HRam ram(16, hram::AccessFn::unit());
  sep::ConcreteExecutor<1> exec(&g, &ram, 1);
  geom::Region<1> d(&g.stencil, {0, -63}, {64, 1});
  AddrMap pre;
  EXPECT_THROW(exec.execute(d, pre), bsmp::precondition_error);
}

TEST(Concrete, ValuesMatchReference3D) {
  auto g = workload::make_mix_guest<3>({2, 2, 2}, 4, 1, 23);
  auto ref = sim::reference_run<3>(g);
  hram::HRam ram(1 << 16, hram::AccessFn::hierarchical(3, 1.0));
  auto got = run_concrete<3>(g, ram, 2, 1);
  auto fin = sim::extract_final<3>(g.stencil, got);
  EXPECT_TRUE(sim::same_values<3>(fin, ref.final_values));
}
