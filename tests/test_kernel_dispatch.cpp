// Kernel dispatch: a scalar guest carries its rule as a concrete kernel
// (sep::Rule, sep/guest.hpp), and every simulator resolves it once per
// call. The contract under test: which kernel a guest carries changes
// only the wall clock —
//   * every kernel factory (mix_rule and xor_rule at d = 1, 2; rule110
//     and rule110_lanes) holds its kernel struct, other rules hold a
//     FunctionKernel;
//   * under simulate_dc_uniproc, simulate_multiproc, simulate_naive and
//     reference_run, a guest carrying the kernel matches the same guest
//     with its rule type-erased (sep::type_erased) in final values,
//     every charged cost bit, every event count and peak staging — with
//     the SIMD leaf path on and off, and with the kernel guest's leaves
//     taking the row path in dc_uniproc and multiproc when it is on;
//   * an ad-hoc lambda still assigns to Guest::rule and runs through
//     the FunctionKernel adapter.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/metrics.hpp"
#include "sep/guest.hpp"
#include "sep/simd.hpp"
#include "sim/dc_uniproc.hpp"
#include "sim/multiproc.hpp"
#include "sim/naive.hpp"
#include "sim/reference.hpp"
#include "workload/rules.hpp"

using namespace bsmp;

namespace {

/// Restore the process-wide SIMD switch on scope exit.
struct SimdGuard {
  bool saved = sep::simd::enabled();
  ~SimdGuard() { sep::simd::set_enabled(saved); }
};

/// The kernel type a rule holds.
template <class K, int D>
bool holds(const sep::Rule<D>& rule) {
  return rule.visit([](const auto& k) {
    return std::is_same_v<std::decay_t<decltype(k)>, K>;
  });
}

/// Everything one simulator run pins: cost bits and event counts of
/// every kind, vertices, peak staging and the final values.
template <int D>
struct Pinned {
  std::array<std::uint64_t, core::CostLedger::kNumKinds> cost_bits{};
  std::array<std::uint64_t, core::CostLedger::kNumKinds> events{};
  std::uint64_t time_bits = 0;
  std::int64_t vertices = 0;
  std::size_t peak = 0;
  std::int64_t row_leaves = 0;  ///< not compared: differs by design
  sim::FinalValues<D> fin;
};

template <int D>
Pinned<D> pin(const sim::SimResult<D>& res, const engine::Metrics* metrics) {
  Pinned<D> out;
  for (std::size_t i = 0; i < core::CostLedger::kNumKinds; ++i) {
    const auto kind = static_cast<core::CostKind>(i);
    const double c = res.ledger.cost(kind);
    std::memcpy(&out.cost_bits[i], &c, sizeof c);
    out.events[i] = res.ledger.events(kind);
  }
  std::memcpy(&out.time_bits, &res.time, sizeof res.time);
  out.vertices = res.vertices;
  out.row_leaves = res.row_leaves;
  if (metrics != nullptr) {
    const auto hot = metrics->hot_snapshot();
    if (!hot.empty()) out.peak = hot.back().peak_staging_words;
  }
  out.fin = res.final_values;
  return out;
}

template <int D>
void expect_same(const Pinned<D>& got, const Pinned<D>& want,
                 const std::string& what) {
  for (std::size_t i = 0; i < core::CostLedger::kNumKinds; ++i) {
    EXPECT_EQ(got.cost_bits[i], want.cost_bits[i])
        << what << ": cost kind " << i << " not bit-identical";
    EXPECT_EQ(got.events[i], want.events[i]) << what << ": event count " << i;
  }
  EXPECT_EQ(got.time_bits, want.time_bits) << what << ": time";
  EXPECT_EQ(got.vertices, want.vertices) << what << ": vertices";
  EXPECT_EQ(got.peak, want.peak) << what << ": peak staging";
  EXPECT_TRUE(sim::same_values<D>(got.fin, want.fin))
      << what << ": final values diverged";
}

/// The four simulators on one guest. Leaves are `leaf` wide (at least
/// Executor::kMinRowLeaf) so the executor's SIMD rows can run.
template <int D>
std::vector<Pinned<D>> run_all(const sep::Guest<D>& g,
                               const machine::MachineSpec& uni,
                               const machine::MachineSpec& multi,
                               std::int64_t s, std::int64_t leaf) {
  std::vector<Pinned<D>> runs;
  {
    engine::Metrics metrics;
    sim::DcConfig cfg;
    cfg.leaf_width = leaf;
    cfg.metrics = &metrics;
    runs.push_back(
        pin<D>(sim::simulate_dc_uniproc<D>(g, uni, cfg), &metrics));
  }
  {
    engine::Metrics metrics;
    sim::MultiprocConfig cfg;
    cfg.s = s;
    cfg.leaf_width = leaf;
    cfg.metrics = &metrics;
    runs.push_back(
        pin<D>(sim::simulate_multiproc<D>(g, multi, cfg), &metrics));
  }
  {
    engine::Metrics metrics;
    sim::NaiveConfig cfg;
    cfg.metrics = &metrics;
    runs.push_back(pin<D>(sim::simulate_naive<D>(g, multi, cfg), &metrics));
  }
  runs.push_back(pin<D>(sim::reference_run<D>(g), nullptr));
  return runs;
}

/// The kernel guest vs its type-erased twin, SIMD on and off, in every
/// simulator; the reference's values also equal the erased reference.
template <int D>
void expect_dispatch_invisible(const sep::Guest<D>& g,
                               const machine::MachineSpec& uni,
                               const machine::MachineSpec& multi,
                               std::int64_t s, std::int64_t leaf,
                               const std::string& what) {
  SimdGuard guard;
  sep::Guest<D> erased = g;
  erased.rule = sep::type_erased(g.rule);
  ASSERT_TRUE(holds<sep::FunctionKernel<D>>(erased.rule)) << what;

  sep::simd::set_enabled(false);
  const std::vector<Pinned<D>> want =
      run_all<D>(erased, uni, multi, s, leaf);
  const char* sims[] = {"dc_uniproc", "multiproc", "naive", "reference"};
  for (bool vector_path : {true, false}) {
    sep::simd::set_enabled(vector_path);
    const std::vector<Pinned<D>> got = run_all<D>(g, uni, multi, s, leaf);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      const std::string label =
          what + " " + sims[k] + (vector_path ? " simd" : " scalar");
      expect_same<D>(got[k], want[k], label);
      // The separator simulators (k < 2) run the executor; its leaves
      // must reach the row path, or simd and scalar compare the
      // scalar loop with itself.
      EXPECT_EQ(got[k].row_leaves > 0,
                k < 2 && vector_path && BSMP_SIMD_ENABLED != 0)
          << label << ": row leaves " << got[k].row_leaves;
      EXPECT_EQ(want[k].row_leaves, 0) << label << " type-erased";
    }
    // Every simulator computes the guest: values equal the reference.
    for (std::size_t k = 0; k + 1 < got.size(); ++k)
      EXPECT_TRUE(sim::same_values<D>(got[k].fin, got.back().fin))
          << what << " " << sims[k] << " vs reference";
  }
}

machine::MachineSpec spec(int d, std::int64_t n, std::int64_t p,
                          std::int64_t m) {
  return machine::MachineSpec{d, n, p, m};
}

sep::Guest<1> guest_d1(sep::Rule<1> rule, std::int64_t m,
                       std::uint64_t seed) {
  auto g = workload::make_mix_guest<1>({64}, 64, m, seed);
  g.rule = std::move(rule);
  return g;
}

sep::Guest<2> guest_d2(sep::Rule<2> rule, std::uint64_t seed) {
  auto g = workload::make_mix_guest<2>({16, 16}, 16, 2, seed);
  g.rule = std::move(rule);
  return g;
}

void run_d1(const sep::Rule<1>& rule, const std::string& what) {
  expect_dispatch_invisible<1>(guest_d1(rule, 4, 71), spec(1, 64, 1, 4),
                               spec(1, 64, 4, 4), /*s=*/8, /*leaf=*/8, what);
}

void run_d2(const sep::Rule<2>& rule, const std::string& what) {
  expect_dispatch_invisible<2>(guest_d2(rule, 72), spec(2, 256, 1, 2),
                               spec(2, 256, 4, 2), /*s=*/8, /*leaf=*/8,
                               what);
}

}  // namespace

TEST(KernelDispatch, FactoriesCarryTheirKernel) {
  EXPECT_TRUE(holds<sep::MixKernel<1>>(workload::mix_rule<1>()));
  EXPECT_TRUE(holds<sep::MixKernel<2>>(workload::mix_rule<2>()));
  EXPECT_TRUE(holds<sep::MixKernel<3>>(workload::mix_rule<3>()));
  EXPECT_TRUE(holds<sep::XorKernel<1>>(workload::xor_rule<1>()));
  EXPECT_TRUE(holds<sep::XorKernel<2>>(workload::xor_rule<2>()));
  EXPECT_TRUE(holds<sep::Rule110Kernel>(workload::rule110()));
  EXPECT_TRUE(holds<sep::Rule110LanesKernel>(workload::rule110_lanes()));
  EXPECT_TRUE(holds<sep::MixKernel<1>>(
      workload::make_mix_guest<1>({8}, 8, 1, 1).rule));
  // Rules without a kernel struct go through the adapter.
  EXPECT_TRUE(holds<sep::FunctionKernel<1>>(workload::parity_rule<1>()));
  EXPECT_TRUE(holds<sep::FunctionKernel<2>>(workload::max_rule<2>()));
  EXPECT_TRUE(holds<sep::FunctionKernel<1>>(workload::sort_rule(8)));
  // The empty rule is the only false one.
  EXPECT_FALSE(sep::Rule<1>{});
  EXPECT_TRUE(sep::Rule<1>{} == nullptr);
  EXPECT_TRUE(static_cast<bool>(workload::mix_rule<1>()));
  // type_erased keeps the values and drops the kernel type.
  const sep::Rule<1> erased = sep::type_erased(workload::mix_rule<1>());
  EXPECT_TRUE(holds<sep::FunctionKernel<1>>(erased));
  geom::Point<1> p{};
  p.x[0] = 5;
  p.t = 9;
  const sep::NeighborWords<1> nb{0x1234, 0xabcdef};
  EXPECT_EQ(erased(p, 77, nb), sep::MixKernel<1>{}(p, 77, nb));
}

TEST(KernelDispatch, MixD1MatchesTypeErasedInEverySimulator) {
  run_d1(workload::mix_rule<1>(), "mix d1");
}

TEST(KernelDispatch, MixD2MatchesTypeErasedInEverySimulator) {
  run_d2(workload::mix_rule<2>(), "mix d2");
}

TEST(KernelDispatch, XorD1MatchesTypeErasedInEverySimulator) {
  run_d1(workload::xor_rule<1>(), "xor d1");
}

TEST(KernelDispatch, XorD2MatchesTypeErasedInEverySimulator) {
  run_d2(workload::xor_rule<2>(), "xor d2");
}

TEST(KernelDispatch, Rule110MatchesTypeErasedInEverySimulator) {
  run_d1(workload::rule110(), "rule110");
}

TEST(KernelDispatch, Rule110LanesMatchesTypeErasedInEverySimulator) {
  run_d1(workload::rule110_lanes(), "rule110_lanes");
}

TEST(KernelDispatch, AdHocLambdaRunsThroughTheAdapter) {
  sep::Guest<1> g = workload::make_mix_guest<1>({64}, 64, 4, 73);
  g.rule = [](const geom::Point<1>& p, sep::Word self,
              const sep::NeighborWords<1>& nbrs) -> sep::Word {
    return (self * 3) ^ nbrs[0] ^ (nbrs[1] << 1) ^
           static_cast<sep::Word>(p.t);
  };
  ASSERT_TRUE(holds<sep::FunctionKernel<1>>(g.rule));
  // Its type-erased twin is itself, so compare against the reference.
  const std::vector<Pinned<1>> runs =
      run_all<1>(g, spec(1, 64, 1, 4), spec(1, 64, 4, 4), 8, 8);
  for (std::size_t k = 0; k + 1 < runs.size(); ++k)
    EXPECT_TRUE(sim::same_values<1>(runs[k].fin, runs.back().fin))
        << "simulator " << k << " vs reference";
  EXPECT_EQ(runs.back().vertices, 64 * 64);
}
