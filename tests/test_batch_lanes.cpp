// Lane-differential and lane-isolation tests of the batched guest
// interface (sep/guest.hpp "Batched guests").
//
// The contract under test: one charged run of a 64-lane batched guest
// is EXACTLY 64 independent scalar runs —
//   * differential: lane l of the batched final values is byte-
//     identical to the corresponding independent scalar run, for every
//     lane, in both batch forms (bit-sliced Word and SoA LaneBatch),
//     across d in {1,2} x Pool {1,2,4};
//   * charging: the batched run's per-kind charged cost bits, event
//     counts, vertex totals, peak staging and slab allocations equal a
//     scalar run of the same stencil exactly (charging is count-based
//     and never reads lane contents);
//   * isolation: perturbing one lane's initial condition leaves the
//     other 63 lanes' final rows bit-identical — no cross-lane leakage
//     through staging or pruning.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>

#include "engine/pool.hpp"
#include "geom/tiling.hpp"
#include "sep/executor.hpp"
#include "sep/staging.hpp"
#include "sim/observe.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"

using namespace bsmp;

namespace {

/// Everything the batching contract pins about one full-volume drive.
template <int D, class V>
struct Outcome {
  std::array<std::uint64_t, core::CostLedger::kNumKinds> cost_bits{};
  std::array<std::uint64_t, core::CostLedger::kNumKinds> events{};
  std::int64_t vertices = 0;
  std::size_t peak = 0;
  std::size_t allocs = 0;
  sim::FinalValues<D, V> fin;
};

/// Drive the guest over the full volume through the same wavefront
/// loop the simulators use. Generic over the value type.
template <int D, class V>
Outcome<D, V> drive(const sep::BasicGuest<D, V>& g,
                    sep::StagingStore<D, V>& staging, int64_t tile,
                    int64_t leaf) {
  sep::ExecutorConfig cfg;
  cfg.leaf_width = leaf;
  cfg.f = hram::AccessFn::hierarchical(D, 4.0);
  sep::Executor<D, V> exec(&g, cfg);
  core::CostLedger ledger;
  exec.set_ledger(&ledger);
  geom::TileGrid<D> grid(&g.stencil, tile);
  for (const auto& wave : grid.wavefronts())
    for (const auto& t : wave) exec.execute(t, staging);

  Outcome<D, V> out;
  for (std::size_t i = 0; i < core::CostLedger::kNumKinds; ++i) {
    auto kind = static_cast<core::CostKind>(i);
    double c = ledger.cost(kind);
    std::memcpy(&out.cost_bits[i], &c, sizeof c);
    out.events[i] = ledger.events(kind);
  }
  out.vertices = exec.vertices_executed();
  out.peak = exec.peak_staging();
  out.allocs = staging.level_allocs();
  out.fin = sim::extract_final<D>(g.stencil, staging);
  return out;
}

/// The charging-identity half of the contract: every count and every
/// charged double of the batch run must equal the scalar run's.
template <int D, class VB, class VS>
void expect_same_charges(const Outcome<D, VB>& batch,
                         const Outcome<D, VS>& scalar,
                         const std::string& what) {
  for (std::size_t i = 0; i < core::CostLedger::kNumKinds; ++i) {
    EXPECT_EQ(batch.cost_bits[i], scalar.cost_bits[i])
        << what << ": cost kind " << i << " not bit-identical to scalar";
    EXPECT_EQ(batch.events[i], scalar.events[i])
        << what << ": event count " << i;
  }
  EXPECT_EQ(batch.vertices, scalar.vertices) << what;
  EXPECT_EQ(batch.peak, scalar.peak) << what << ": peak staging";
  EXPECT_EQ(batch.allocs, scalar.allocs) << what << ": slab allocs";
}

// --- d=1: bit-sliced rule110, 64 distinct random 0/1 rows ------------

/// Packed guest: bit l of the input word at node x is lane l's initial
/// cell, drawn from an independent per-lane random stream.
sep::Guest<1> packed110_guest(int64_t n, int64_t horizon,
                              std::uint64_t seed) {
  sep::Guest<1> g;
  g.stencil = geom::Stencil<1>{{n}, horizon, 1};
  g.rule = workload::rule110_lanes();
  g.input = [seed](const std::array<int64_t, 1>& x,
                   int64_t cell) -> sep::Word {
    sep::Word w = 0;
    for (int l = 0; l < sep::kLanes; ++l) {
      auto bit = workload::random_input<1>(
          seed + static_cast<std::uint64_t>(l))(x, cell) & 1u;
      w |= bit << l;
    }
    return w;
  };
  return g;
}

/// Lane l of the packed guest as an independent scalar guest.
sep::Guest<1> lane110_guest(const sep::Guest<1>& packed, int lane) {
  sep::Guest<1> g;
  g.stencil = packed.stencil;
  g.rule = workload::rule110();
  g.input = [in = packed.input, lane](const std::array<int64_t, 1>& x,
                                      int64_t cell) -> sep::Word {
    return (in(x, cell) >> lane) & 1u;
  };
  return g;
}

// --- d=2: SoA LaneBatch over the wide-word mix rule ------------------

/// SoA-batched mix guest: lane l runs the mix rule from its own random
/// input stream (seed + l) — 64 full-width scenarios per charged run.
sep::BatchGuest<2> soa_mix_guest(std::array<int64_t, 2> extent,
                                 int64_t horizon, int64_t m,
                                 std::uint64_t seed) {
  sep::BatchGuest<2> g;
  g.stencil.extent = extent;
  g.stencil.horizon = horizon;
  g.stencil.m = m;
  g.rule = sep::broadcast_rule<2>(workload::mix_rule<2>());
  std::array<sep::InputFn<2>, sep::kLanes> ins;
  for (int l = 0; l < sep::kLanes; ++l)
    ins[static_cast<std::size_t>(l)] =
        workload::random_input<2>(seed + static_cast<std::uint64_t>(l));
  g.input = sep::lane_inputs<2>(std::move(ins));
  return g;
}

/// Lane l of the SoA guest as an independent scalar guest.
sep::Guest<2> lane_mix_guest(const sep::BatchGuest<2>& batch, int lane,
                             std::uint64_t seed) {
  sep::Guest<2> g;
  g.stencil = batch.stencil;
  g.rule = workload::mix_rule<2>();
  g.input = workload::random_input<2>(seed + static_cast<std::uint64_t>(lane));
  return g;
}

}  // namespace

// ---------------------------------------------------------------------
// Lane-differential: every lane == its scalar run, charges == scalar,
// across Pool {1,2,4}.
// ---------------------------------------------------------------------

TEST(BatchLanes, D1BitSlicedLanesMatchScalarRunsAcrossStoresPoolsGrains) {
  const int64_t n = 64, T = 64, tile = 32, leaf = 2;
  auto packed = packed110_guest(n, T, 99);

  // The 64 independent scalar runs, once, each checked against the
  // direct guest run; all charge identically (charging depends only on
  // the stencil), so keep one charge record.
  std::array<sim::FinalValues<1>, sep::kLanes> lane_fin;
  Outcome<1, sep::Word> scalar0;
  for (int l = 0; l < sep::kLanes; ++l) {
    auto g = lane110_guest(packed, l);
    sep::StagingStore<1> staging(&g.stencil);
    auto out = drive<1>(g, staging, tile, leaf);
    if (l == 0) scalar0 = out;
    expect_same_charges<1>(out, scalar0, "scalar lane " + std::to_string(l));
    EXPECT_TRUE(sim::same_values<1>(out.fin,
                                    sim::reference_run<1>(g).final_values))
        << "scalar lane " << l << " diverged from the direct guest run";
    lane_fin[static_cast<std::size_t>(l)] = std::move(out.fin);
  }

  for (int threads : {1, 2, 4}) {
    engine::Pool pool(threads);
    auto bind = pool.bind_caller();
    const std::string what = "d1 threads=" + std::to_string(threads);
    sep::StagingStore<1> staging(&packed.stencil);
    auto batch = drive<1>(packed, staging, tile, leaf);
    expect_same_charges<1>(batch, scalar0, what);
    for (int l = 0; l < sep::kLanes; ++l) {
      EXPECT_TRUE(sim::same_values<1>(sep::extract_bit_lane<1>(batch.fin, l),
                                      lane_fin[static_cast<std::size_t>(l)]))
          << what << ": lane " << l << " diverged from its scalar run";
    }
  }
}

TEST(BatchLanes, D2SoALanesMatchScalarRunsAcrossStoresPoolsGrains) {
  const std::array<int64_t, 2> extent{12, 12};
  const int64_t T = 12, m = 2, tile = 6, leaf = 2;
  const std::uint64_t seed = 777;
  auto batch_g = soa_mix_guest(extent, T, m, seed);

  std::array<sim::FinalValues<2>, sep::kLanes> lane_fin;
  Outcome<2, sep::Word> scalar0;
  for (int l = 0; l < sep::kLanes; ++l) {
    auto g = lane_mix_guest(batch_g, l, seed);
    sep::StagingStore<2> staging(&g.stencil);
    auto out = drive<2>(g, staging, tile, leaf);
    if (l == 0) scalar0 = out;
    expect_same_charges<2>(out, scalar0, "scalar lane " + std::to_string(l));
    EXPECT_TRUE(sim::same_values<2>(out.fin,
                                    sim::reference_run<2>(g).final_values))
        << "scalar lane " << l << " diverged from the direct guest run";
    lane_fin[static_cast<std::size_t>(l)] = std::move(out.fin);
  }

  for (int threads : {1, 2, 4}) {
    engine::Pool pool(threads);
    auto bind = pool.bind_caller();
    const std::string what = "d2 threads=" + std::to_string(threads);
    sep::StagingStore<2, sep::LaneBatch> staging(&batch_g.stencil);
    auto batch = drive<2>(batch_g, staging, tile, leaf);
    expect_same_charges<2>(batch, scalar0, what);
    for (int l = 0; l < sep::kLanes; ++l) {
      EXPECT_TRUE(sim::same_values<2>(sep::extract_lane<2>(batch.fin, l),
                                      lane_fin[static_cast<std::size_t>(l)]))
          << what << ": lane " << l << " diverged from its scalar run";
    }
  }
}

// ---------------------------------------------------------------------
// Broadcast adapter: lifting a scalar guest puts the scalar run's
// values in every lane, through executor and reference run alike.
// ---------------------------------------------------------------------

TEST(BatchLanes, BroadcastGuestReproducesScalarRunInEveryLane) {
  auto g = workload::make_mix_guest<2>({8, 8}, 8, 1, 4242);
  auto b = sep::broadcast_guest<2>(g);

  sep::StagingStore<2> s_scalar(&g.stencil);
  auto scalar = drive<2>(g, s_scalar, /*tile=*/4, /*leaf=*/2);
  sep::StagingStore<2, sep::LaneBatch> s_batch(&b.stencil);
  auto batch = drive<2>(b, s_batch, /*tile=*/4, /*leaf=*/2);

  expect_same_charges<2>(batch, scalar, "broadcast");
  for (int l = 0; l < sep::kLanes; ++l)
    EXPECT_TRUE(sim::same_values<2>(sep::extract_lane<2>(batch.fin, l),
                                    scalar.fin))
        << "broadcast lane " << l;

  // The reference run agrees lane for lane too.
  auto rref = sim::reference_run(g);
  auto bref = sim::reference_run(b);
  for (int l = 0; l < sep::kLanes; ++l)
    EXPECT_TRUE(sim::same_values<2>(
        sep::extract_lane<2>(bref.final_values, l), rref.final_values))
        << "reference lane " << l;
}

// ---------------------------------------------------------------------
// Lane isolation: flip one lane's initial condition — the other 63
// lanes' final rows must be bit-identical to the unperturbed run.
// ---------------------------------------------------------------------

TEST(BatchLanes, BitSlicedFaultInjectionStaysInItsLane) {
  const int kFault = 5;
  auto base = packed110_guest(64, 64, 31);
  auto hurt = base;
  hurt.input = [in = base.input](const std::array<int64_t, 1>& x,
                                 int64_t cell) -> sep::Word {
    sep::Word w = in(x, cell);
    if (x[0] == 17) w ^= sep::Word{1} << kFault;  // flip lane 5, node 17
    return w;
  };

  sep::StagingStore<1> s_base(&base.stencil);
  auto a = drive<1>(base, s_base, /*tile=*/32, /*leaf=*/2);
  sep::StagingStore<1> s_hurt(&hurt.stencil);
  auto b = drive<1>(hurt, s_hurt, /*tile=*/32, /*leaf=*/2);

  expect_same_charges<1>(b, a, "fault injection");
  int diverged = 0;
  for (int l = 0; l < sep::kLanes; ++l) {
    const bool same = sim::same_values<1>(sep::extract_bit_lane<1>(a.fin, l),
                                          sep::extract_bit_lane<1>(b.fin, l));
    if (l == kFault) {
      if (!same) ++diverged;
    } else {
      EXPECT_TRUE(same) << "lane " << l
                        << " leaked from the perturbed lane " << kFault;
    }
  }
  EXPECT_EQ(diverged, 1) << "the perturbed lane never diverged — the "
                            "perturbation did not take";
}

TEST(BatchLanes, SoAFaultInjectionStaysInItsLane) {
  const int kFault = 17;
  const std::uint64_t seed = 55;
  auto base = soa_mix_guest({10, 10}, 10, 1, seed);
  auto hurt = base;
  hurt.input = [in = base.input](const std::array<int64_t, 2>& x,
                                 int64_t cell) -> sep::LaneBatch {
    sep::LaneBatch v = in(x, cell);
    if (x[0] == 3 && x[1] == 7) v[kFault] ^= 0xdeadbeefULL;
    return v;
  };

  sep::StagingStore<2, sep::LaneBatch> s_base(&base.stencil);
  auto a = drive<2>(base, s_base, /*tile=*/5, /*leaf=*/2);
  sep::StagingStore<2, sep::LaneBatch> s_hurt(&hurt.stencil);
  auto b = drive<2>(hurt, s_hurt, /*tile=*/5, /*leaf=*/2);

  expect_same_charges<2>(b, a, "SoA fault injection");
  for (int l = 0; l < sep::kLanes; ++l) {
    const bool same = sim::same_values<2>(sep::extract_lane<2>(a.fin, l),
                                          sep::extract_lane<2>(b.fin, l));
    if (l == kFault)
      EXPECT_FALSE(same) << "perturbed lane never diverged";
    else
      EXPECT_TRUE(same) << "lane " << l << " leaked from lane " << kFault;
  }
}

// ---------------------------------------------------------------------
// Batched staging stores behave like scalar ones on the basics.
// ---------------------------------------------------------------------

TEST(BatchLanes, LaneBatchStagingStoreBasics) {
  geom::Stencil<1> st{{8}, 4, 1};
  sep::StagingStore<1, sep::LaneBatch> s(&st);
  geom::Point<1> p{{3}, 1};

  EXPECT_EQ(s.find(p), nullptr);
  sep::LaneBatch v = sep::LaneBatch::splat(7);
  v[9] = 1234;
  EXPECT_TRUE(s.insert(p, v));
  EXPECT_EQ(s.size(), 1u);  // size counts points, not lane words
  ASSERT_NE(s.find(p), nullptr);
  EXPECT_EQ((*s.find(p))[9], 1234u);
  EXPECT_EQ((*s.find(p))[0], 7u);
  EXPECT_FALSE(s.insert(p, v));
  EXPECT_TRUE(s.erase(p));
  EXPECT_EQ(s.size(), 0u);
}
