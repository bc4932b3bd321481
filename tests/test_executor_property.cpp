// Parameterized and algorithmic-output tests of the executor and the
// full simulators: beyond matching the reference run bit-for-bit, the
// simulated machines must *compute correct answers* for guest programs
// with checkable semantics (sorting, window maxima).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <type_traits>

#include "engine/metrics.hpp"
#include "engine/pool.hpp"
#include "engine/sweep.hpp"
#include "geom/tiling.hpp"
#include "sched/parallel.hpp"
#include "sep/executor.hpp"
#include "sim/dc_uniproc.hpp"
#include "sim/multiproc.hpp"
#include "sim/naive.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"

using namespace bsmp;

// Shards hold a pointer to their parent; a copy would silently become
// an overlay on the copied-from object (dangling once it dies), so
// copying must not compile — overlays are built with the sep::overlay
// tag only.
static_assert(!std::is_copy_constructible_v<sep::StagingShard<1>>,
              "StagingShard must not be copyable");
static_assert(!std::is_copy_assignable_v<sep::StagingShard<2>>,
              "StagingShard must not be copy-assignable");

namespace {

machine::MachineSpec spec(int d, int64_t n, int64_t p, int64_t m) {
  return machine::MachineSpec{d, n, p, m};
}

sep::Guest<1> sort_guest(int64_t n, std::uint64_t seed) {
  sep::Guest<1> g;
  // Horizon n+1: t=0 loads inputs, steps 1..n are the n compare-
  // exchange rounds odd-even transposition sort needs in the worst
  // case (a fully reversed array).
  g.stencil = geom::Stencil<1>{{n}, n + 1, 1};
  g.rule = workload::sort_rule(n);
  g.input = [seed, n](const std::array<int64_t, 1>& x,
                      int64_t) -> sep::Word {
    core::SplitMix64 rng(seed + static_cast<std::uint64_t>(x[0]));
    return rng.next_below(static_cast<std::uint64_t>(4 * n)) + 1;
  };
  return g;
}

/// Read out the final array of a d=1, m=1 guest result.
std::vector<sep::Word> final_array(const geom::Stencil<1>& st,
                                   const sim::FinalValues<1>& fin) {
  std::vector<sep::Word> out(static_cast<std::size_t>(st.extent[0]));
  for (int64_t x = 0; x < st.extent[0]; ++x)
    out[x] = fin.at(geom::Point<1>{{x}, st.horizon - 1});
  return out;
}

std::vector<sep::Word> input_array(const sep::Guest<1>& g) {
  std::vector<sep::Word> in(static_cast<std::size_t>(g.stencil.extent[0]));
  for (int64_t x = 0; x < g.stencil.extent[0]; ++x) in[x] = g.input({x}, 0);
  return in;
}

}  // namespace

// ---------------------------------------------------------------------
// Sorting: every simulation scheme must actually sort.
// ---------------------------------------------------------------------

struct SortCase {
  int64_t n, p;
  const char* scheme;
};

class SystolicSort : public ::testing::TestWithParam<SortCase> {};

TEST_P(SystolicSort, SortsCorrectly) {
  auto [n, p, scheme] = GetParam();
  auto g = sort_guest(n, 42 + n);  // horizon n+1: n compare steps
  auto want = input_array(g);
  std::sort(want.begin(), want.end());

  sim::SimResult<1> res;
  if (std::string(scheme) == "naive") {
    res = sim::simulate_naive<1>(g, spec(1, n, p, 1));
  } else if (std::string(scheme) == "dc") {
    res = sim::simulate_dc_uniproc<1>(g, spec(1, n, 1, 1));
  } else {
    sim::MultiprocConfig cfg;
    res = sim::simulate_multiproc<1>(g, spec(1, n, p, 1), cfg);
  }
  EXPECT_EQ(final_array(g.stencil, res.final_values), want)
      << scheme << " n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SystolicSort,
    ::testing::Values(SortCase{16, 1, "naive"}, SortCase{16, 4, "naive"},
                      SortCase{16, 1, "dc"}, SortCase{32, 1, "dc"},
                      SortCase{16, 2, "multiproc"},
                      SortCase{32, 4, "multiproc"},
                      SortCase{64, 8, "multiproc"}));

TEST(SystolicSort, AlreadySortedAndReversed) {
  int64_t n = 16;
  for (bool reversed : {false, true}) {
    sep::Guest<1> g;
    g.stencil = geom::Stencil<1>{{n}, n + 1, 1};
    g.rule = workload::sort_rule(n);
    g.input = [n, reversed](const std::array<int64_t, 1>& x,
                            int64_t) -> sep::Word {
      return static_cast<sep::Word>(reversed ? n - x[0] : x[0] + 1);
    };
    auto res = sim::simulate_dc_uniproc<1>(g, spec(1, n, 1, 1));
    auto arr = final_array(g.stencil, res.final_values);
    EXPECT_TRUE(std::is_sorted(arr.begin(), arr.end())) << reversed;
    EXPECT_EQ(arr.front(), 1u);
    EXPECT_EQ(arr.back(), static_cast<sep::Word>(n));
  }
}

// ---------------------------------------------------------------------
// Window maxima: value(x, T-1) = max input within distance T-1.
// ---------------------------------------------------------------------

class MaxPropagation : public ::testing::TestWithParam<int64_t> {};

TEST_P(MaxPropagation, ComputesWindowMaxima) {
  int64_t n = 24, T = GetParam();
  sep::Guest<1> g;
  g.stencil = geom::Stencil<1>{{n}, T, 1};
  g.rule = workload::max_rule<1>();
  g.input = workload::random_input<1>(7);

  auto res = sim::simulate_dc_uniproc<1>(g, spec(1, n, 1, 1));
  for (int64_t x = 0; x < n; ++x) {
    sep::Word want = 0;
    for (int64_t y = std::max<int64_t>(0, x - (T - 1));
         y <= std::min(n - 1, x + (T - 1)); ++y)
      want = std::max(want, g.input({y}, 0));
    EXPECT_EQ(res.final_values.at(geom::Point<1>{{x}, T - 1}), want)
        << "x=" << x << " T=" << T;
  }
}
INSTANTIATE_TEST_SUITE_P(Horizons, MaxPropagation,
                         ::testing::Values(2, 5, 9, 24, 40));

TEST(MaxPropagation, GlobalMaxAfterNSteps2D) {
  int64_t side = 5;
  sep::Guest<2> g;
  g.stencil = geom::Stencil<2>{{side, side}, 2 * side, 1};
  g.rule = workload::max_rule<2>();
  g.input = workload::random_input<2>(11);
  sep::Word global = 0;
  for (int64_t x = 0; x < side; ++x)
    for (int64_t y = 0; y < side; ++y)
      global = std::max(global, g.input({x, y}, 0));

  auto res = sim::simulate_dc_uniproc<2>(g, spec(2, side * side, 1, 1));
  for (const auto& [p, v] : res.final_values)
    EXPECT_EQ(v, global) << p.x[0] << "," << p.x[1];
}

// ---------------------------------------------------------------------
// Parameterized equivalence sweep across executor configurations.
// ---------------------------------------------------------------------

struct ExecCase {
  int64_t n, T, m, tile, leaf;
};

class ExecutorSweep : public ::testing::TestWithParam<ExecCase> {};

TEST_P(ExecutorSweep, MatchesReference) {
  auto [n, T, m, tile, leaf] = GetParam();
  auto g = workload::make_mix_guest<1>({n}, T, m,
                                       static_cast<std::uint64_t>(
                                           n * 1000 + T * 10 + m));
  auto ref = sim::reference_run<1>(g);

  sep::ExecutorConfig cfg;
  cfg.leaf_width = leaf;
  cfg.f = hram::AccessFn::hierarchical(1, static_cast<double>(m));
  sep::Executor<1> exec(&g, cfg);
  core::CostLedger ledger;
  exec.set_ledger(&ledger);
  geom::TileGrid<1> grid(&g.stencil, tile);
  sep::StagingStore<1> staging(&g.stencil);
  for (const auto& wave : grid.wavefronts())
    for (const auto& t : wave) exec.execute(t, staging);

  EXPECT_EQ(exec.vertices_executed(), n * T);
  EXPECT_TRUE(sim::same_values<1>(sim::extract_final<1>(g.stencil, staging),
                                  ref.final_values));
  // The ledger is consistent: one compute event per vertex.
  EXPECT_EQ(ledger.events(core::CostKind::kCompute),
            static_cast<std::uint64_t>(n * T));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecutorSweep,
    ::testing::Values(ExecCase{5, 3, 1, 3, 1}, ExecCase{7, 11, 1, 4, 2},
                      ExecCase{12, 12, 1, 12, 1}, ExecCase{9, 20, 3, 6, 3},
                      ExecCase{16, 7, 5, 8, 4}, ExecCase{11, 23, 7, 16, 7},
                      ExecCase{8, 40, 2, 5, 1}, ExecCase{13, 13, 13, 8, 8},
                      ExecCase{6, 9, 20, 6, 6}));

// ---------------------------------------------------------------------
// Determinism and staging hygiene.
// ---------------------------------------------------------------------

TEST(ExecutorHygiene, RunsAreDeterministic) {
  auto g = workload::make_mix_guest<1>({16}, 16, 2, 5);
  auto run = [&] {
    auto res = sim::simulate_dc_uniproc<1>(g, spec(1, 16, 1, 2));
    return std::pair(res.time, res.final_values);
  };
  auto [t1, v1] = run();
  auto [t2, v2] = run();
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_TRUE(sim::same_values<1>(v1, v2));
}

TEST(ExecutorHygiene, MultiprocDeterministic) {
  auto g = workload::make_mix_guest<1>({32}, 32, 2, 9);
  sim::MultiprocConfig cfg;
  cfg.s = 4;
  auto a = sim::simulate_multiproc<1>(g, spec(1, 32, 4, 2), cfg);
  auto b = sim::simulate_multiproc<1>(g, spec(1, 32, 4, 2), cfg);
  EXPECT_DOUBLE_EQ(a.time, b.time);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
}

TEST(ExecutorHygiene, StagingDoesNotLeakAcrossTiles) {
  // After a full dc run the retained staging equals exactly the final
  // rows (everything else was pruned) — checked indirectly: the result
  // holds one value per (node, cell).
  auto g = workload::make_mix_guest<1>({12}, 36, 3, 4);
  auto res = sim::simulate_dc_uniproc<1>(g, spec(1, 12, 1, 3));
  EXPECT_EQ(res.final_values.size(), static_cast<std::size_t>(12 * 3));
}

TEST(ExecutorHygiene, VertexCountsMatchAcrossSchemes) {
  auto g = workload::make_mix_guest<1>({16}, 24, 2, 3);
  auto a = sim::simulate_dc_uniproc<1>(g, spec(1, 16, 1, 2));
  sim::MultiprocConfig cfg;
  cfg.s = 4;
  auto b = sim::simulate_multiproc<1>(g, spec(1, 16, 4, 2), cfg);
  auto c = sim::simulate_naive<1>(g, spec(1, 16, 2, 2));
  EXPECT_EQ(a.vertices, 16 * 24);
  EXPECT_EQ(b.vertices, 16 * 24);
  EXPECT_EQ(c.vertices, 16 * 24);
}

// ---------------------------------------------------------------------
// Shearsort: the canonical 2-d mesh sorting algorithm, through every
// simulator, verified to sort in snake order.
// ---------------------------------------------------------------------

namespace {

sep::Guest<2> shearsort_guest(int64_t side, std::uint64_t seed) {
  sep::Guest<2> g;
  int64_t T = 1 + workload::shearsort_phases(side) * side;
  g.stencil = geom::Stencil<2>{{side, side}, T, 1};
  g.rule = workload::shearsort_rule(side);
  g.input = [seed, side](const std::array<int64_t, 2>& x,
                         int64_t) -> sep::Word {
    core::SplitMix64 rng(seed + static_cast<std::uint64_t>(
                                    x[0] * side + x[1]));
    return rng.next_below(static_cast<std::uint64_t>(9 * side)) + 1;
  };
  return g;
}

std::vector<sep::Word> snake_readout(const geom::Stencil<2>& st,
                                     const sim::FinalValues<2>& fin) {
  int64_t side = st.extent[0];
  std::vector<sep::Word> out(static_cast<std::size_t>(side * side));
  for (int64_t r = 0; r < side; ++r)
    for (int64_t c = 0; c < side; ++c)
      out[workload::snake_rank(side, r, c)] =
          fin.at(geom::Point<2>{{r, c}, st.horizon - 1});
  return out;
}

}  // namespace

struct ShearCase {
  int64_t side, p;
  const char* scheme;
};

class Shearsort : public ::testing::TestWithParam<ShearCase> {};

TEST_P(Shearsort, SortsInSnakeOrder) {
  auto [side, p, scheme] = GetParam();
  auto g = shearsort_guest(side, 77 + side);
  std::vector<sep::Word> want;
  for (int64_t r = 0; r < side; ++r)
    for (int64_t c = 0; c < side; ++c) want.push_back(g.input({r, c}, 0));
  std::sort(want.begin(), want.end());

  sim::SimResult<2> res;
  machine::MachineSpec host{2, side * side, p, 1};
  if (std::string(scheme) == "naive") {
    res = sim::simulate_naive<2>(g, host);
  } else if (std::string(scheme) == "dc") {
    res = sim::simulate_dc_uniproc<2>(g, host);
  } else {
    sim::MultiprocConfig cfg;
    cfg.s = std::max<int64_t>(1, side / (2 * host.proc_side()));
    res = sim::simulate_multiproc<2>(g, host, cfg);
  }
  EXPECT_EQ(snake_readout(g.stencil, res.final_values), want)
      << scheme << " side=" << side << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, Shearsort,
    ::testing::Values(ShearCase{4, 1, "naive"}, ShearCase{4, 1, "dc"},
                      ShearCase{6, 1, "dc"}, ShearCase{8, 1, "dc"},
                      ShearCase{4, 4, "multiproc"},
                      ShearCase{8, 4, "multiproc"},
                      ShearCase{8, 16, "multiproc"}));

TEST(Shearsort, PhaseCountIsLogarithmic) {
  EXPECT_EQ(workload::shearsort_phases(2), 5);
  EXPECT_EQ(workload::shearsort_phases(16), 11);
  EXPECT_GT(workload::shearsort_phases(64), workload::shearsort_phases(8));
}

TEST(Shearsort, SnakeRank) {
  EXPECT_EQ(workload::snake_rank(4, 0, 0), 0);
  EXPECT_EQ(workload::snake_rank(4, 0, 3), 3);
  EXPECT_EQ(workload::snake_rank(4, 1, 3), 4);  // odd rows run backward
  EXPECT_EQ(workload::snake_rank(4, 1, 0), 7);
  EXPECT_EQ(workload::snake_rank(4, 3, 0), 15);
}

// ---------------------------------------------------------------------
// Trinomial convolution: an additive rule whose closed form we can
// compute independently — value(x,T-1) = sum over y of T(T-1, x-y) *
// input(y) with trinomial coefficients (mod 2^64), checked against a
// separate direct convolution, not just the reference run.
// ---------------------------------------------------------------------

TEST(Trinomial, SimulatedValuesMatchClosedForm) {
  const int64_t n = 12, T = 7;
  sep::Guest<1> g;
  g.stencil = geom::Stencil<1>{{n}, T, 1};
  g.rule = [](const geom::Point<1>&, sep::Word self,
              const sep::NeighborWords<1>& nbrs) -> sep::Word {
    return self + nbrs[0] + nbrs[1];  // exact mod 2^64
  };
  g.input = workload::random_input<1>(31);

  auto res = sim::simulate_dc_uniproc<1>(
      g, machine::MachineSpec{1, n, 1, 1});

  // Independent direct computation of the trinomial weights on the
  // bounded domain (absorbing boundaries, same as the zero boundary).
  std::vector<std::vector<sep::Word>> w(
      n, std::vector<sep::Word>(n, 0));
  for (int64_t y = 0; y < n; ++y) w[y][y] = 1;  // t = 0
  for (int64_t t = 1; t < T; ++t) {
    std::vector<std::vector<sep::Word>> nw(
        n, std::vector<sep::Word>(n, 0));
    for (int64_t y = 0; y < n; ++y)
      for (int64_t x = 0; x < n; ++x) {
        sep::Word v = w[y][x];
        if (x > 0) v += w[y][x - 1];
        if (x + 1 < n) v += w[y][x + 1];
        nw[y][x] = v;
      }
    w.swap(nw);
  }
  for (int64_t x = 0; x < n; ++x) {
    sep::Word want = 0;
    for (int64_t y = 0; y < n; ++y) want += w[y][x] * g.input({y}, 0);
    EXPECT_EQ(res.final_values.at(geom::Point<1>{{x}, T - 1}), want)
        << "x=" << x;
  }
}

// ---------------------------------------------------------------------
// Failure injection: the equivalence checks have teeth.
// ---------------------------------------------------------------------

TEST(FailureInjection, CorruptedStagingValuePropagatesToOutputs) {
  // Execute a tile with one preboundary value flipped: with the mixing
  // rule, the final rows must differ from the clean run — proving that
  // a wrong staged operand cannot go unnoticed by the comparisons.
  auto g = workload::make_mix_guest<1>({16}, 16, 1, 91);
  auto ref = sim::reference_run<1>(g);

  sep::ExecutorConfig cfg;
  cfg.leaf_width = 1;
  cfg.f = hram::AccessFn::unit();
  sep::Executor<1> exec(&g, cfg);
  core::CostLedger ledger;
  exec.set_ledger(&ledger);

  geom::TileGrid<1> grid(&g.stencil, 8);
  sep::StagingStore<1> staging(&g.stencil);
  bool corrupted = false;
  for (const auto& wave : grid.wavefronts()) {
    for (const auto& tile : wave) {
      if (!corrupted && !tile.preboundary().empty()) {
        auto q = tile.preboundary().front();
        staging.at(q) ^= 1;  // flip one staged bit
        corrupted = true;
      }
      exec.execute(tile, staging);
    }
  }
  ASSERT_TRUE(corrupted);
  auto fin = sim::extract_final<1>(g.stencil, staging);
  EXPECT_FALSE(sim::same_values<1>(fin, ref.final_values))
      << "a corrupted operand must corrupt the outputs";
}

// ---------------------------------------------------------------------
// Parallel-grain bit-identity: the fork-join recursion must be
// indistinguishable from the serial one — per-kind charged costs
// (bitwise, doubles), event counts, vertex totals, peak staging, slab
// allocations, and every final value identical across parallel_grain
// ∈ {off, small, huge} × pool sizes {1, 2, 4}, for d=1 and d=2
// volumes driven through the same wavefront loop the simulators use.
// ---------------------------------------------------------------------

namespace {

template <int D>
struct DriveOutcome {
  std::array<std::uint64_t, core::CostLedger::kNumKinds> cost_bits{};
  std::array<std::uint64_t, core::CostLedger::kNumKinds> events{};
  std::int64_t vertices = 0;
  std::size_t peak = 0;
  std::size_t allocs = 0;
  sim::FinalValues<D> fin;

  void expect_eq(const DriveOutcome& other, const std::string& what) const {
    for (std::size_t i = 0; i < core::CostLedger::kNumKinds; ++i) {
      EXPECT_EQ(cost_bits[i], other.cost_bits[i])
          << what << ": cost kind " << i << " not bit-identical";
      EXPECT_EQ(events[i], other.events[i]) << what << ": events kind " << i;
    }
    EXPECT_EQ(vertices, other.vertices) << what;
    EXPECT_EQ(peak, other.peak) << what << ": peak staging";
    EXPECT_EQ(allocs, other.allocs) << what << ": slab allocs";
    EXPECT_TRUE(sim::same_values<D>(fin, other.fin)) << what;
  }
};

/// Run the guest through the wavefront driver with the given grain and
/// return everything the determinism contract pins.
template <int D>
DriveOutcome<D> drive_with_grain(const sep::Guest<D>& g,
                                 sep::StagingStore<D>& staging, int64_t tile,
                                 int64_t leaf, int64_t grain) {
  sep::ExecutorConfig cfg;
  cfg.leaf_width = leaf;
  cfg.f = hram::AccessFn::hierarchical(D, 4.0);
  cfg.parallel_grain = grain;
  sep::Executor<D> exec(&g, cfg);
  core::CostLedger ledger;
  exec.set_ledger(&ledger);
  geom::TileGrid<D> grid(&g.stencil, tile);
  for (const auto& wave : grid.wavefronts())
    for (const auto& t : wave) exec.execute(t, staging);

  DriveOutcome<D> out;
  for (std::size_t i = 0; i < core::CostLedger::kNumKinds; ++i) {
    auto kind = static_cast<core::CostKind>(i);
    double c = ledger.cost(kind);
    static_assert(sizeof c == sizeof out.cost_bits[i]);
    std::memcpy(&out.cost_bits[i], &c, sizeof c);
    out.events[i] = ledger.events(kind);
  }
  out.vertices = exec.vertices_executed();
  out.peak = exec.peak_staging();
  out.allocs = staging.level_allocs();
  out.fin = sim::extract_final<D>(g.stencil, staging);
  return out;
}

}  // namespace

template <int D>
void grain_pool_matrix(const sep::Guest<D>& g, int64_t tile, int64_t leaf) {
  sep::StagingStore<D> ref_staging(&g.stencil);
  auto ref = drive_with_grain<D>(g, ref_staging, tile, leaf, /*grain=*/0);
  // The serial run itself against the independent oracles: the direct
  // guest run for values, the volume for the vertex count.
  EXPECT_TRUE(
      sim::same_values<D>(ref.fin, sim::reference_run<D>(g).final_values));
  EXPECT_EQ(ref.vertices, g.stencil.num_nodes() * g.stencil.horizon);

  for (int64_t grain : {int64_t{2}, int64_t{1} << 30}) {
    for (int threads : {1, 2, 4}) {
      engine::Pool pool(threads);
      auto bind = pool.bind_caller();
      sep::StagingStore<D> staging(&g.stencil);
      auto got = drive_with_grain<D>(g, staging, tile, leaf, grain);
      ref.expect_eq(got, "d=" + std::to_string(D) + " grain=" +
                             std::to_string(grain) +
                             " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelGrainIdentity, D1VolumeBitIdenticalAcrossGrainAndPool) {
  auto g = workload::make_mix_guest<1>({32}, 32, 2, 1234);
  grain_pool_matrix<1>(g, /*tile=*/16, /*leaf=*/2);
}

TEST(ParallelGrainIdentity, D2VolumeBitIdenticalAcrossGrainAndPool) {
  auto g = workload::make_mix_guest<2>({12, 12}, 12, 1, 4321);
  grain_pool_matrix<2>(g, /*tile=*/6, /*leaf=*/2);
}

TEST(ParallelGrainIdentity, MultiprocWaveForkingBitIdentical) {
  // The multiproc driver forks machine tiles and regime-1 relocation
  // runs; totals, final values, virtual time, and utilization must not
  // move.
  auto g = workload::make_mix_guest<1>({32}, 32, 2, 9);
  sim::MultiprocConfig cfg;
  cfg.s = 4;
  auto ref = sim::simulate_multiproc<1>(g, spec(1, 32, 4, 2), cfg);
  const int64_t saved = sep::default_parallel_grain();
  sep::set_default_parallel_grain(2);
  sim::MultiprocConfig fcfg = cfg;
  fcfg.reloc_grain = 2;
  fcfg.wave_grain = 2;
  for (int threads : {1, 2, 4}) {
    engine::Pool pool(threads);
    auto bind = pool.bind_caller();
    auto got = sim::simulate_multiproc<1>(g, spec(1, 32, 4, 2), fcfg);
    EXPECT_EQ(got.time, ref.time) << "threads=" << threads;
    EXPECT_EQ(got.utilization, ref.utilization) << "threads=" << threads;
    EXPECT_EQ(got.vertices, ref.vertices) << "threads=" << threads;
    EXPECT_EQ(got.ledger.total(), ref.ledger.total())
        << "threads=" << threads;
    EXPECT_TRUE(sim::same_values<1>(got.final_values, ref.final_values))
        << "threads=" << threads;
  }
  sep::set_default_parallel_grain(saved);
}

// ---------------------------------------------------------------------
// Multiproc forking identity: the forked regime-1 relocation levels and
// forked machine-tile wavefronts (d=1 and d=2) must be bit-identical to
// the serial run — per-kind charged costs (bitwise doubles), event
// counts, virtual time, utilization, vertices, peak staging, slab
// allocations, final values, and the emitted op stream — across
// Pool {1,2,4} × grain {off, 2, huge}.
// ---------------------------------------------------------------------

namespace {

struct MpOutcome {
  std::array<std::uint64_t, core::CostLedger::kNumKinds> cost_bits{};
  std::array<std::uint64_t, core::CostLedger::kNumKinds> events{};
  std::int64_t vertices = 0;
  std::uint64_t time_bits = 0, util_bits = 0;
  std::size_t peak = 0;
  std::size_t allocs = 0;
};

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  static_assert(sizeof v == sizeof b);
  std::memcpy(&b, &v, sizeof v);
  return b;
}

struct MpGrains {
  int64_t reloc, wave;
};

/// Run the multiproc simulator under one grains config and return
/// everything the determinism contract pins.
template <int D, class V>
MpOutcome run_multiproc(const sep::BasicGuest<D, V>& g,
                        const machine::MachineSpec& host, int64_t s,
                        MpGrains grains, sim::FinalValues<D, V>& fin_out) {
  engine::Metrics metrics;
  sim::MultiprocConfig cfg;
  cfg.s = s;
  cfg.reloc_grain = grains.reloc;
  cfg.wave_grain = grains.wave;
  cfg.metrics = &metrics;
  auto res = sim::simulate_multiproc<D, V>(g, host, cfg);

  MpOutcome out;
  for (std::size_t i = 0; i < core::CostLedger::kNumKinds; ++i) {
    auto kind = static_cast<core::CostKind>(i);
    out.cost_bits[i] = bits_of(res.ledger.cost(kind));
    out.events[i] = res.ledger.events(kind);
  }
  out.vertices = res.vertices;
  out.time_bits = bits_of(res.time);
  out.util_bits = bits_of(res.utilization);
  auto hot = metrics.hot_snapshot();
  EXPECT_EQ(hot.size(), 1u);
  if (!hot.empty()) {
    out.peak = hot[0].peak_staging_words;
    out.allocs = hot[0].staging_allocs;
  }
  fin_out = std::move(res.final_values);
  return out;
}

void expect_mp_eq(const MpOutcome& a, const MpOutcome& b,
                  const std::string& what) {
  for (std::size_t i = 0; i < core::CostLedger::kNumKinds; ++i) {
    EXPECT_EQ(a.cost_bits[i], b.cost_bits[i])
        << what << ": cost kind " << i << " not bit-identical";
    EXPECT_EQ(a.events[i], b.events[i]) << what << ": events kind " << i;
  }
  EXPECT_EQ(a.vertices, b.vertices) << what;
  EXPECT_EQ(a.time_bits, b.time_bits) << what << ": virtual time";
  EXPECT_EQ(a.util_bits, b.util_bits) << what << ": utilization";
  EXPECT_EQ(a.peak, b.peak) << what << ": peak staging";
  EXPECT_EQ(a.allocs, b.allocs) << what << ": slab allocs";
}

/// The full matrix for one guest: the serial reference vs every
/// (grain combo, pool size). Grain combos turn each mechanism on alone
/// and all together, plus a huge grain that must behave exactly like
/// off.
template <int D, class V>
void multiproc_fork_matrix(const sep::BasicGuest<D, V>& g,
                           const machine::MachineSpec& host, int64_t s) {
  const MpGrains kOff{0, 0};
  const int64_t huge = int64_t{1} << 30;
  const MpGrains combos[] = {
      {2, 0},        // regime-1 relocation forks alone
      {0, 2},        // machine-tile wavefronts fork alone
      {2, 2},        // both fork
      {huge, huge},  // above every width: must equal off
  };

  sim::FinalValues<D, V> ref_fin;
  auto ref = run_multiproc<D>(g, host, s, kOff, ref_fin);
  // The serial run itself against the direct guest run.
  EXPECT_TRUE(
      sim::same_values<D>(ref_fin, sim::reference_run<D>(g).final_values));

  for (const MpGrains& gr : combos) {
    for (int threads : {1, 2, 4}) {
      engine::Pool pool(threads);
      auto bind = pool.bind_caller();
      sim::FinalValues<D, V> fin;
      auto got = run_multiproc<D>(g, host, s, gr, fin);
      const std::string what =
          "d=" + std::to_string(D) + " reloc=" + std::to_string(gr.reloc) +
          " wave=" + std::to_string(gr.wave) +
          " threads=" + std::to_string(threads);
      expect_mp_eq(ref, got, what);
      EXPECT_TRUE(sim::same_values<D>(ref_fin, fin)) << what;
    }
  }
}

}  // namespace

TEST(ParallelGrainIdentity, MultiprocD1ForkMatrixBitIdentical) {
  auto g = workload::make_mix_guest<1>({64}, 64, 2, 1234);
  multiproc_fork_matrix<1>(g, spec(1, 64, 4, 2), /*s=*/4);
}

TEST(ParallelGrainIdentity, MultiprocD2ForkMatrixBitIdentical) {
  auto g = workload::make_mix_guest<2>({8, 8}, 8, 1, 4321);
  multiproc_fork_matrix<2>(g, machine::MachineSpec{2, 64, 4, 1}, /*s=*/2);
}

namespace {

/// Every fork phase's spawned + inlined count after one multiproc run
/// with reloc/wave grains 2 (and the executor grain 2) on a 4-slot pool.
template <int D>
std::array<std::uint64_t, engine::kNumForkPhases> multiproc_phase_forks(
    const sep::Guest<D>& g, const machine::MachineSpec& host, int64_t s) {
  const int64_t saved = sep::default_parallel_grain();
  sep::set_default_parallel_grain(2);
  sim::MultiprocConfig cfg;
  cfg.s = s;
  cfg.reloc_grain = 2;
  cfg.wave_grain = 2;
  engine::Pool pool(4);
  engine::TaskStats stats;
  {
    auto bind = pool.bind_caller();
    pool.reset_task_stats();
    sim::simulate_multiproc<D>(g, host, cfg);
    stats = pool.task_stats();
  }
  sep::set_default_parallel_grain(saved);
  std::array<std::uint64_t, engine::kNumForkPhases> out{};
  for (std::size_t i = 0; i < engine::kNumForkPhases; ++i)
    out[i] = stats.phase[i].spawned + stats.phase[i].inlined;
  return out;
}

}  // namespace

TEST(ParallelGrainIdentity, MultiprocForksOnlyMachineTilesAndRelocations) {
  // The fork matrices above prove nothing unless the forks fire: on
  // their configs, machine tiles and regime-1 relocation runs fork, and
  // nothing else does — regime-2 waves and subtile bodies run in order
  // even with the executor grain on.
  auto check = [](const auto& forks, const std::string& what) {
    for (std::size_t i = 0; i < engine::kNumForkPhases; ++i) {
      const auto phase = static_cast<engine::ForkPhase>(i);
      const std::string name = engine::fork_phase_name(phase);
      if (phase == engine::ForkPhase::kMachineTile ||
          phase == engine::ForkPhase::kRegime1Relocate)
        EXPECT_GT(forks[i], 0u) << what << ": " << name;
      else
        EXPECT_EQ(forks[i], 0u) << what << ": " << name;
    }
  };
  check(multiproc_phase_forks<1>(
            workload::make_mix_guest<1>({64}, 64, 2, 1234), spec(1, 64, 4, 2),
            /*s=*/4),
        "d=1");
  check(multiproc_phase_forks<2>(
            workload::make_mix_guest<2>({8, 8}, 8, 1, 4321),
            machine::MachineSpec{2, 64, 4, 1}, /*s=*/2),
        "d=2");
}

TEST(ParallelGrainIdentity, MultiprocEmitConformance) {
  // The op stream is emitted on the canonical-order replay path, so it
  // must be byte-identical whether the run forked or not — and its
  // makespan must still reproduce the simulator's virtual time.
  auto g = workload::make_mix_guest<1>({64}, 64, 2, 77);
  machine::MachineSpec host{1, 64, 4, 2};
  sim::MultiprocConfig cfg;
  cfg.s = 4;

  sim::MultiprocSimulator<1> serial(&g, host, cfg);
  sched::ParallelSchedule<1> ref(host.p);
  serial.set_emit(&ref);
  auto sres = serial.run();

  const int64_t saved = sep::default_parallel_grain();
  sep::set_default_parallel_grain(2);
  sim::MultiprocConfig fcfg = cfg;
  fcfg.reloc_grain = 2;
  fcfg.wave_grain = 2;
  engine::Pool pool(4);
  auto bind = pool.bind_caller();
  sim::MultiprocSimulator<1> forked(&g, host, fcfg);
  sched::ParallelSchedule<1> got(host.p);
  forked.set_emit(&got);
  auto fres = forked.run();
  sep::set_default_parallel_grain(saved);

  EXPECT_EQ(fres.time, sres.time);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const auto& a = ref.ops()[i];
    const auto& b = got.ops()[i];
    EXPECT_EQ(a.kind, b.kind) << "op " << i;
    EXPECT_EQ(a.proc, b.proc) << "op " << i;
    EXPECT_EQ(a.words, b.words) << "op " << i;
    EXPECT_EQ(bits_of(a.addr_scale), bits_of(b.addr_scale)) << "op " << i;
    EXPECT_EQ(bits_of(a.distance), bits_of(b.distance)) << "op " << i;
    EXPECT_EQ(a.leaf_lo, b.leaf_lo) << "op " << i;
    EXPECT_EQ(a.leaf_hi, b.leaf_hi) << "op " << i;
  }
  EXPECT_EQ(bits_of(got.makespan_under(g.stencil, host.access_fn())),
            bits_of(ref.makespan_under(g.stencil, host.access_fn())));
}

TEST(ParallelGrainIdentity, NestedSweepAndSimulatorForksShareThePool) {
  // Second nesting level: sweep points fork across the Pool, and each
  // point's simulator forks its waves/relocations into the *same*
  // scheduler (sweep workers are bound to slots, so TaskScope finds
  // it) — no second pool, and the rows stay byte-identical across pool
  // sizes.
  const int64_t saved = sep::default_parallel_grain();
  sep::set_default_parallel_grain(2);
  auto run_rows = [&](int threads) {
    engine::Pool pool(threads);
    std::vector<int> points{0, 1, 2, 3};
    return engine::sweep_map<std::uint64_t>(
        pool, points, [&](int pt, engine::SweepContext&) {
          auto g = workload::make_mix_guest<1>(
              {32}, 32, 2, 100 + static_cast<std::uint64_t>(pt));
          sim::MultiprocConfig cfg;
          cfg.s = 4;
          cfg.reloc_grain = 2;
          cfg.wave_grain = 2;
          auto res = sim::simulate_multiproc<1>(g, spec(1, 32, 4, 2), cfg);
          return bits_of(res.time) ^
                 static_cast<std::uint64_t>(res.vertices);
        });
  };
  auto ref = run_rows(1);
  EXPECT_EQ(run_rows(2), ref);
  EXPECT_EQ(run_rows(4), ref);
  sep::set_default_parallel_grain(saved);
}

TEST(FailureInjection, WrongRuleIsDetected) {
  auto g1 = workload::make_mix_guest<1>({8}, 8, 1, 5);
  auto g2 = g1;
  g2.rule = [base = g1.rule](const geom::Point<1>& p, sep::Word self,
                             const sep::NeighborWords<1>& nbrs) {
    sep::Word v = base(p, self, nbrs);
    return (p.x[0] == 3 && p.t == 4) ? v + 1 : v;  // one wrong vertex
  };
  auto r1 = sim::reference_run<1>(g1);
  auto r2 = sim::reference_run<1>(g2);
  EXPECT_FALSE(sim::same_values<1>(r1.final_values, r2.final_values));
}
