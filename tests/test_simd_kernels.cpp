// SIMD leaf-kernel tests (sep/simd.hpp, doc/PERF.md "Byte identity").
//
// The contract under test: the vector leaf path is an *invisible*
// optimization —
//   * row kernels: every workload kernel's `row` member is
//     bit-identical to calling its scalar operator() per element, for
//     both xstride forms (1 = leaf row, 0 = SoA lanes) and arbitrary
//     span lengths (vector body + scalar tail);
//   * executor differential: driving the full volume of a guest that
//     carries its kernel with the vector path on equals both the
//     forced-scalar run and the type-erased (FunctionKernel) run in every
//     charged bit, event count, peak, slab count and final value,
//     across d in {1,2} x Pool {1,4}, with the
//     reference's values checked against the direct guest run and the
//     vector-path runs' leaves checked to have taken the row path;
//   * fallback dispatch: simd::set_enabled(false) reports the scalar
//     ISA and single-lane width, and the SoA lift (simd::soa_rule)
//     equals sep::broadcast_rule lane for lane either way.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "engine/pool.hpp"
#include "geom/tiling.hpp"
#include "sep/executor.hpp"
#include "sep/simd.hpp"
#include "sep/staging.hpp"
#include "sim/observe.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"

using namespace bsmp;

namespace {

/// Restore the process-wide SIMD switch on scope exit, whatever the
/// test did to it.
struct SimdGuard {
  bool saved = sep::simd::enabled();
  ~SimdGuard() { sep::simd::set_enabled(saved); }
};

sep::Word splitmix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ULL;
  return sep::detail::mix64(s);
}

/// row() vs per-element operator() over random operands, several span
/// lengths (shorter and longer than any vector width) and both stride
/// forms of the contract.
template <int D, class Kernel>
void expect_row_matches_scalar(Kernel k, const std::string& what) {
  std::uint64_t s = 0x5eed + static_cast<std::uint64_t>(D);
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                        std::size_t{8}, std::size_t{13}, std::size_t{64}}) {
    for (std::int64_t xstride : {std::int64_t{1}, std::int64_t{0}}) {
      std::vector<sep::Word> self(n), out(n);
      std::array<std::vector<sep::Word>, geom::kMono<D>> nbr;
      const sep::Word* nbr_ptr[geom::kMono<D>];
      for (int kk = 0; kk < geom::kMono<D>; ++kk) {
        nbr[static_cast<std::size_t>(kk)].resize(n);
        for (auto& w : nbr[static_cast<std::size_t>(kk)]) w = splitmix(s);
        nbr_ptr[kk] = nbr[static_cast<std::size_t>(kk)].data();
      }
      for (auto& w : self) w = splitmix(s);

      geom::Point<D> p0{};
      p0.t = static_cast<std::int64_t>(splitmix(s) % 100);
      for (int i = 0; i < D; ++i)
        p0.x[i] = static_cast<std::int64_t>(splitmix(s) % 1000);

      k.row(out.data(), self.data(), nbr_ptr, n, p0, xstride);

      for (std::size_t i = 0; i < n; ++i) {
        geom::Point<D> p = p0;
        p.x[D - 1] += xstride * static_cast<std::int64_t>(i);
        sep::NeighborWords<D> nb{};
        for (int kk = 0; kk < geom::kMono<D>; ++kk)
          nb[static_cast<std::size_t>(kk)] =
              nbr[static_cast<std::size_t>(kk)][i];
        EXPECT_EQ(out[i], k(p, self[i], nb))
            << what << ": n=" << n << " xstride=" << xstride << " i=" << i;
      }
    }
  }
}

/// Everything the byte-identity contract pins about one drive (the
/// test_batch_lanes Outcome, reused for SIMD-vs-scalar).
template <int D>
struct Outcome {
  std::array<std::uint64_t, core::CostLedger::kNumKinds> cost_bits{};
  std::array<std::uint64_t, core::CostLedger::kNumKinds> events{};
  std::int64_t vertices = 0;
  std::size_t peak = 0;
  std::size_t allocs = 0;
  std::int64_t row_leaves = 0;  ///< not compared: differs by design
  sim::FinalValues<D> fin;
};

/// Drive the guest over the full volume with `rule` in place of its
/// own, so a concrete kernel (or the type-erased rule) can be swapped
/// in while everything else stays the wavefront loop of the sims.
template <int D>
Outcome<D> drive(const sep::Guest<D>& g, sep::StagingStore<D>& staging,
                 std::int64_t tile, std::int64_t leaf,
                 const sep::Rule<D>& rule) {
  sep::ExecutorConfig cfg;
  cfg.leaf_width = leaf;
  cfg.f = hram::AccessFn::hierarchical(D, 4.0);
  sep::Guest<D> guest = g;
  guest.rule = rule;
  sep::Executor<D, sep::Word> exec(&guest, cfg);
  core::CostLedger ledger;
  exec.set_ledger(&ledger);
  geom::TileGrid<D> grid(&g.stencil, tile);
  for (const auto& wave : grid.wavefronts())
    for (const auto& t : wave) exec.execute(t, staging);

  Outcome<D> out;
  for (std::size_t i = 0; i < core::CostLedger::kNumKinds; ++i) {
    auto kind = static_cast<core::CostKind>(i);
    double c = ledger.cost(kind);
    std::memcpy(&out.cost_bits[i], &c, sizeof c);
    out.events[i] = ledger.events(kind);
  }
  out.vertices = exec.vertices_executed();
  out.peak = exec.peak_staging();
  out.allocs = staging.level_allocs();
  out.row_leaves = exec.row_leaves();
  out.fin = sim::extract_final<D>(g.stencil, staging);
  return out;
}

template <int D>
void expect_same_outcome(const Outcome<D>& got, const Outcome<D>& want,
                         const std::string& what) {
  for (std::size_t i = 0; i < core::CostLedger::kNumKinds; ++i) {
    EXPECT_EQ(got.cost_bits[i], want.cost_bits[i])
        << what << ": cost kind " << i << " not bit-identical";
    EXPECT_EQ(got.events[i], want.events[i]) << what << ": event count " << i;
  }
  EXPECT_EQ(got.vertices, want.vertices) << what;
  EXPECT_EQ(got.peak, want.peak) << what << ": peak staging";
  EXPECT_EQ(got.allocs, want.allocs) << what << ": slab allocs";
  EXPECT_TRUE(sim::same_values<D>(got.fin, want.fin))
      << what << ": final values diverged";
}

/// The d x Pool differential for one kernel: SIMD on == SIMD
/// off == type-erased rule, in every pinned field.
template <int D, class Kernel>
void run_differential(const sep::Guest<D>& g, Kernel kernel,
                      std::int64_t tile, std::int64_t leaf,
                      const std::string& what) {
  SimdGuard guard;

  // Reference: the guest's rule type-erased, vector path off.
  sep::simd::set_enabled(false);
  sep::StagingStore<D> ref_staging(&g.stencil);
  Outcome<D> ref =
      drive<D>(g, ref_staging, tile, leaf, sep::type_erased(g.rule));
  EXPECT_TRUE(
      sim::same_values<D>(ref.fin, sim::reference_run<D>(g).final_values))
      << what << ": reference diverged from the direct guest run";

  for (bool vector_path : {true, false}) {
    sep::simd::set_enabled(vector_path);
    for (int threads : {1, 4}) {
      engine::Pool pool(threads);
      auto bind = pool.bind_caller();
      const std::string label = what + (vector_path ? " simd" : " scalar") +
                                " threads=" + std::to_string(threads);
      sep::StagingStore<D> staging(&g.stencil);
      const Outcome<D> got = drive<D>(g, staging, tile, leaf, kernel);
      expect_same_outcome<D>(got, ref, label);
      // The tile and leaf must reach the row path, or the simd and
      // scalar runs compare the scalar loop with itself.
      EXPECT_EQ(got.row_leaves > 0, vector_path && BSMP_SIMD_ENABLED != 0)
          << label << ": row leaves " << got.row_leaves;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------
// Row kernels, element for element.
// ---------------------------------------------------------------------

TEST(SimdKernels, MixRowMatchesScalarD1) {
  expect_row_matches_scalar<1>(sep::MixKernel<1>{}, "mix d1");
}

TEST(SimdKernels, MixRowMatchesScalarD2) {
  expect_row_matches_scalar<2>(sep::MixKernel<2>{}, "mix d2");
}

TEST(SimdKernels, XorRowMatchesScalarD1) {
  expect_row_matches_scalar<1>(sep::XorKernel<1>{}, "xor d1");
}

TEST(SimdKernels, XorRowMatchesScalarD2) {
  expect_row_matches_scalar<2>(sep::XorKernel<2>{}, "xor d2");
}

TEST(SimdKernels, Rule110RowsMatchScalar) {
  expect_row_matches_scalar<1>(sep::Rule110Kernel{}, "rule110");
  expect_row_matches_scalar<1>(sep::Rule110LanesKernel{},
                               "rule110_lanes");
}

// ---------------------------------------------------------------------
// Compile-time gating: which (rule, D, V) combinations take the
// vector path at all.
// ---------------------------------------------------------------------

TEST(SimdKernels, RowKernelConceptGatesExactly) {
  constexpr bool on = BSMP_SIMD_ENABLED != 0;
  static_assert(sep::simd::has_row_kernel<sep::MixKernel<1>, 1,
                                          sep::Word> == on);
  static_assert(sep::simd::has_row_kernel<sep::MixKernel<2>, 2,
                                          sep::Word> == on);
  // No D=3 kernel is defined; the concept must say so instead of
  // letting the executor instantiate a missing row().
  static_assert(!sep::simd::has_row_kernel<sep::MixKernel<3>, 3,
                                           sep::Word>);
  // Wrong dimension or non-Word values never take the vector path.
  static_assert(!sep::simd::has_row_kernel<sep::MixKernel<1>, 2,
                                           sep::Word>);
  static_assert(!sep::simd::has_row_kernel<sep::MixKernel<1>, 1,
                                           sep::LaneBatch>);
  // Type-erased rules have no row member.
  static_assert(!sep::simd::has_row_kernel<sep::Rule<1>, 1, sep::Word>);
  SUCCEED();
}

// ---------------------------------------------------------------------
// Runtime dispatch and the scalar fallback.
// ---------------------------------------------------------------------

TEST(SimdKernels, DisabledSwitchReportsScalarDispatch) {
  SimdGuard guard;
  sep::simd::set_enabled(false);
  EXPECT_FALSE(sep::simd::enabled());
  EXPECT_STREQ(sep::simd::active_isa(), "scalar");
  EXPECT_EQ(sep::simd::lane_width(), 1);

  sep::simd::set_enabled(true);
  EXPECT_TRUE(sep::simd::enabled());
  const std::string isa = sep::simd::active_isa();
#if BSMP_SIMD_ENABLED
  EXPECT_TRUE(isa == "avx512" || isa == "avx2" || isa == "sse2" ||
              isa == "neon" || isa == "scalar")
      << isa;
  EXPECT_GE(sep::simd::lane_width(), 1);
#else
  // Compiled out: enabling the switch cannot resurrect the kernels.
  EXPECT_EQ(isa, "scalar");
  EXPECT_EQ(sep::simd::lane_width(), 1);
#endif
}

// ---------------------------------------------------------------------
// Full-volume executor differential: d x Pool, with
// the vector path on and off, against the type-erased reference.
// ---------------------------------------------------------------------

TEST(SimdKernels, D1MixExecutorSimdMatchesScalarAcrossStoresPoolsGrains) {
  auto g = workload::make_mix_guest<1>({96}, 96, 8, 7);
  run_differential<1>(g, sep::MixKernel<1>{}, /*tile=*/32, /*leaf=*/8,
                      "d1 mix");
}

TEST(SimdKernels, D1MixShallowMemoryExecutorDifferential) {
  // m=2 with wide leaves: most interior cells find their self operand
  // inside the window (t - m >= tmin), exercising the no-scratch form.
  auto g = workload::make_mix_guest<1>({64}, 64, 2, 11);
  run_differential<1>(g, sep::MixKernel<1>{}, /*tile=*/32, /*leaf=*/8,
                      "d1 mix m=2");
}

TEST(SimdKernels, D2MixExecutorSimdMatchesScalarAcrossStoresPoolsGrains) {
  auto g = workload::make_mix_guest<2>({16, 16}, 16, 2, 7);
  run_differential<2>(g, sep::MixKernel<2>{}, /*tile=*/16, /*leaf=*/8,
                      "d2 mix");
}

TEST(SimdKernels, D1Rule110ExecutorDifferential) {
  sep::Guest<1> g;
  g.stencil = geom::Stencil<1>{{64}, 64, 1};
  g.rule = workload::rule110();
  g.input = [](const std::array<std::int64_t, 1>& x,
               std::int64_t cell) -> sep::Word {
    return workload::random_input<1>(3)(x, cell);  // arbitrary high bits
  };
  run_differential<1>(g, sep::Rule110Kernel{}, /*tile=*/32, /*leaf=*/8,
                      "d1 rule110");
}

// ---------------------------------------------------------------------
// The SoA lift: soa_rule == broadcast_rule, lane for lane, with the
// kernel row path on and off.
// ---------------------------------------------------------------------

TEST(SimdKernels, SoaKernelRuleMatchesBroadcastRule) {
  SimdGuard guard;
  auto broadcast = sep::broadcast_rule<2>(workload::mix_rule<2>());
  auto soa = sep::simd::soa_rule<2>(sep::MixKernel<2>{});

  std::uint64_t s = 99;
  for (int rep = 0; rep < 8; ++rep) {
    geom::Point<2> p{};
    p.t = static_cast<std::int64_t>(splitmix(s) % 64);
    p.x[0] = static_cast<std::int64_t>(splitmix(s) % 64);
    p.x[1] = static_cast<std::int64_t>(splitmix(s) % 64);
    sep::LaneBatch self;
    sep::BasicNeighbors<2, sep::LaneBatch> nbrs{};
    for (int l = 0; l < sep::kLanes; ++l) {
      self[l] = splitmix(s);
      for (int k = 0; k < geom::kMono<2>; ++k)
        nbrs[static_cast<std::size_t>(k)][l] = splitmix(s);
    }
    for (bool vector_path : {true, false}) {
      sep::simd::set_enabled(vector_path);
      sep::LaneBatch want = broadcast(p, self, nbrs);
      sep::LaneBatch got = soa(p, self, nbrs);
      for (int l = 0; l < sep::kLanes; ++l)
        EXPECT_EQ(got[l], want[l])
            << "lane " << l << " vector_path=" << vector_path;
    }
  }
}
