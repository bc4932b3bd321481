/// \file
/// Guest computation semantics shared by every simulator.
//
// A guest Md(n, n, m) runs a synchronous network computation: at step t
// node x combines one cell of its private memory (last written at step
// t - m under the scanning access pattern) with the words received from
// its neighbors at step t-1, producing the dag value of vertex (x, t).
// For m = 1 this is exactly the execution of GT(H) from Definition 3.
//
// Values are 64-bit words; rules should mix their operands well so that
// any scheduling bug in a simulator corrupts the final rows with
// overwhelming probability (the equivalence tests rely on this).
//
// A scalar guest carries its rule as a concrete kernel (Rule, a
// std::variant of the kernel structs of sep/kernels.hpp plus the
// FunctionKernel adapter). Every simulator resolves the kernel once
// per call — visit_rule — and hands the concrete callable to its
// vertex loop, so kernel rules make no per-vertex indirect call and
// the executor's leaves take the SIMD row path wherever the kernel
// has one (doc/ENGINE.md "SIMD kernels").
//
// Batched guests (doc/ENGINE.md "Batched guests"): every theorem holds
// for *arbitrary* T-step computations, so nothing in the charging
// depends on what a dag value *is* — only on how many vertices exist
// and where they sit. The guest interface is therefore generic over
// the value type V carried per vertex (BasicGuest<D, V>), and one
// charged run can evaluate kLanes = 64 independent scenarios at once:
//
//   * bit-sliced: V stays Word and bit l of every value is lane l's
//     1-bit cell state. Rules whose scalar form is a lane-local boolean
//     function of the operand bits (rule110_lanes, xor parity) are
//     already 64-way batch rules — the entire execution stack runs
//     unchanged and one charged pass carries 64 scenarios;
//   * structure-of-arrays: V = LaneBatch, a Word[64], for wide-word
//     rules. The broadcast adapters below lift any scalar guest into
//     this form lane by lane.
//
// In both forms the charged cost stream, vertex counts and staging
// peaks are bit-identical to a single scalar run of the same stencil:
// charging is count-based and counts points, not words per point.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>

#include "core/expect.hpp"
#include "geom/lattice.hpp"
#include "sep/kernels.hpp"

namespace bsmp::sep {

/// Scenarios per batched run: one per bit of a Word, so the bit-sliced
/// and SoA forms always agree on the ensemble size.
inline constexpr int kLanes = 64;

/// Structure-of-arrays batch value: lane l of a dag vertex is the word
/// scenario l computed there. The per-point unit of the batched
/// staging stores and the executor's dense leaf window.
struct LaneBatch {
  /// The 64 scenario words, contiguous so SIMD row kernels can treat
  /// one operand's lanes as a structure-of-arrays span (sep/simd.hpp
  /// soa_rule).
  std::array<Word, kLanes> lane{};

  /// Lane l's word (0 <= l < kLanes).
  Word& operator[](int l) { return lane[static_cast<std::size_t>(l)]; }
  /// Lane l's word (0 <= l < kLanes).
  const Word& operator[](int l) const {
    return lane[static_cast<std::size_t>(l)];
  }
  /// Lane-wise equality (the unit the differential tests compare).
  friend bool operator==(const LaneBatch& a, const LaneBatch& b) {
    return a.lane == b.lane;
  }
  /// Lane-wise inequality.
  friend bool operator!=(const LaneBatch& a, const LaneBatch& b) {
    return !(a == b);
  }

  /// All lanes holding the same word — the broadcast of a scalar value.
  static LaneBatch splat(Word v) {
    LaneBatch b;
    b.lane.fill(v);
    return b;
  }
};

/// Values of dag vertices, keyed by lattice point: the record
/// sched::run_schedule builds and the medium of the hot table's
/// hash-map baseline (tables/hotpath.hpp). Executors and simulators
/// stage through sep::StagingStore instead (sep/staging.hpp).
template <int D>
using ValueMap =
    std::unordered_map<geom::Point<D>, Word, geom::PointHash<D>>;

/// SoA-batched neighbor operands (V = LaneBatch). The operand order
/// and the Word forms live with the kernels (sep/kernels.hpp).
template <int D>
using NeighborBatches = BasicNeighbors<D, LaneBatch>;

/// A type-erased step rule: value(x, t) for t >= 1. `self_prev` is the
/// node's own cell operand — value(x, t-m) when t >= m, or the initial
/// content of cell (t mod m) when t < m.
template <int D, class V>
using RuleFunction = std::function<V(const geom::Point<D>& p, V self_prev,
                                     const BasicNeighbors<D, V>& nbrs)>;

/// The kernel alternative for every scalar rule without a kernel
/// struct (parity, diffusion, sort, max, shearsort, ad-hoc lambdas):
/// one std::function call per vertex, and no row kernel.
template <int D>
struct FunctionKernel {
  RuleFunction<D, Word> fn;

  Word operator()(const geom::Point<D>& p, Word self,
                  const NeighborWords<D>& nbrs) const {
    return fn(p, self, nbrs);
  }
};

/// The kernels a scalar rule of dimension D can hold: the kernel
/// structs defined for D, then the FunctionKernel adapter.
template <int D>
struct RuleKernels {
  using type = std::variant<MixKernel<D>, XorKernel<D>, FunctionKernel<D>>;
};
template <>
struct RuleKernels<1> {
  using type = std::variant<MixKernel<1>, XorKernel<1>, Rule110Kernel,
                            Rule110LanesKernel, FunctionKernel<1>>;
};

namespace detail {
template <class K, class Variant>
inline constexpr bool is_alternative = false;
template <class K, class... Ks>
inline constexpr bool is_alternative<K, std::variant<Ks...>> =
    (std::is_same_v<K, Ks> || ...);
}  // namespace detail

/// Scalar step rule (V = Word): a std::variant of the concrete kernels.
/// Assigning a kernel struct stores it as is; any other callable with
/// the rule signature is stored in a FunctionKernel. Simulators call
/// visit() once per execution and run their vertex loops on the
/// concrete kernel, so a kernel rule makes no per-vertex indirect call
/// and the executor's leaves reach its SIMD row path (sep/simd.hpp).
/// operator() dispatches per call and is meant for tests and adapters.
template <int D>
class Rule {
 public:
  using Kernels = typename RuleKernels<D>::type;

  /// The empty rule: an empty FunctionKernel, rejected by validate().
  Rule() = default;
  Rule(std::nullptr_t) {}

  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, Rule> &&
             std::is_invocable_r_v<Word, const std::decay_t<F>&,
                                   const geom::Point<D>&, Word,
                                   const NeighborWords<D>&>)
  Rule(F&& f) : kernel_(hold(std::forward<F>(f))) {}

  /// Call f with the held kernel (one std::visit).
  template <class F>
  decltype(auto) visit(F&& f) const {
    return std::visit(std::forward<F>(f), kernel_);
  }

  Word operator()(const geom::Point<D>& p, Word self,
                  const NeighborWords<D>& nbrs) const {
    return visit([&](const auto& k) { return k(p, self, nbrs); });
  }

  /// False only for the empty rule.
  explicit operator bool() const {
    const auto* f = std::get_if<FunctionKernel<D>>(&kernel_);
    return f == nullptr || f->fn != nullptr;
  }
  friend bool operator==(const Rule& r, std::nullptr_t) { return !r; }

 private:
  template <class F>
  static Kernels hold(F&& f) {
    using K = std::decay_t<F>;
    if constexpr (detail::is_alternative<K, Kernels>)
      return Kernels(std::in_place_type<K>, std::forward<F>(f));
    else
      return Kernels(std::in_place_type<FunctionKernel<D>>,
                     FunctionKernel<D>{RuleFunction<D, Word>(
                         std::forward<F>(f))});
  }

  Kernels kernel_{std::in_place_type<FunctionKernel<D>>};
};

/// The same rule with its kernel behind a FunctionKernel: identical
/// values, evaluated through one std::function call per vertex and
/// never by a row kernel — the type-erased baseline the kernel paths
/// are compared against.
template <int D>
Rule<D> type_erased(const Rule<D>& rule) {
  return rule.visit([](const auto& k) -> Rule<D> {
    if constexpr (std::is_same_v<std::decay_t<decltype(k)>,
                                 FunctionKernel<D>>)
      return k;
    else
      return FunctionKernel<D>{RuleFunction<D, Word>(k)};
  });
}

/// SoA-batched step rule (V = LaneBatch), type-erased.
template <int D>
using BatchRule = RuleFunction<D, LaneBatch>;

/// The step rule a guest over V carries: Rule<D> for scalar guests,
/// BatchRule<D> for batched ones.
template <int D, class V>
using BasicRule =
    std::conditional_t<std::is_same_v<V, Word>, Rule<D>, RuleFunction<D, V>>;

/// Call f with a guest rule's concrete callable: the kernel a scalar
/// Rule holds (one std::visit), or a batched rule's std::function.
template <int D, class F>
decltype(auto) visit_rule(const Rule<D>& rule, F&& f) {
  return rule.visit(std::forward<F>(f));
}
template <class Sig, class F>
decltype(auto) visit_rule(const std::function<Sig>& rule, F&& f) {
  return std::forward<F>(f)(rule);
}

/// Initial memory contents: cell `cell` (0 <= cell < m) of node x.
/// value(x, 0) is input(x, 0) by Definition 3.
template <int D, class V>
using BasicInputFn =
    std::function<V(const std::array<int64_t, D>& x, int64_t cell)>;

/// Scalar input generator (V = Word).
template <int D>
using InputFn = BasicInputFn<D, Word>;

/// SoA-batched input generator (V = LaneBatch).
template <int D>
using BatchInput = BasicInputFn<D, LaneBatch>;

/// A guest computation: stencil (mesh extents, horizon T, memory m),
/// step rule and inputs, over per-vertex values of type V.
template <int D, class V>
struct BasicGuest {
  geom::Stencil<D> stencil;   ///< mesh extents, horizon T, memory m
  BasicRule<D, V> rule;       ///< step rule for t >= 1
  BasicInputFn<D, V> input;   ///< initial memory contents (t = 0 plane)

  /// Assert the guest is runnable: valid stencil, non-null callables.
  void validate() const {
    stencil.validate();
    BSMP_REQUIRE(rule != nullptr);
    BSMP_REQUIRE(input != nullptr);
  }
};

/// Scalar guest (V = Word) — what every original simulator runs.
template <int D>
using Guest = BasicGuest<D, Word>;

/// SoA-batched guest (V = LaneBatch): 64 scenarios per charged run.
template <int D>
using BatchGuest = BasicGuest<D, LaneBatch>;

/// One evaluated vertex: its value and the number of operands read.
template <class V>
struct VertexValue {
  V value;       ///< the vertex's dag value
  int operands;  ///< words read: the input word, or self + in-mesh neighbors
};

/// Evaluate vertex p by Definition 3 — the one per-vertex evaluator of
/// every executor (sep::Executor's leaves, ConcreteExecutor,
/// sched::run_schedule, the hot table's HashMapExecutor). An input
/// vertex (t = 0) reads initial cell 0 and counts one operand. Any
/// other vertex applies `rule` to its self operand — value(x, t-m), or
/// initial cell t mod m while t < m — and its in-mesh neighbors at
/// t-1 (slots outside the mesh stay zero); it counts the self operand
/// plus those neighbors. Staged operands are fetched through
/// `lookup(q)` in a fixed order, self first and then the neighbors in
/// BasicNeighbors order, so a lookup that charges per read (an H-RAM)
/// sees the same access sequence from every caller.
template <int D, class V, class RuleFn, class Lookup>
inline VertexValue<V> eval_vertex(const BasicGuest<D, V>& guest,
                                  const RuleFn& rule,
                                  const geom::Point<D>& p,
                                  const Lookup& lookup) {
  const geom::Stencil<D>& st = guest.stencil;
  if (p.t == 0) return {guest.input(p.x, 0), 1};
  V self_prev;
  if (p.t >= st.m) {
    geom::Point<D> q = p;
    q.t = p.t - st.m;
    self_prev = lookup(q);
  } else {
    self_prev = guest.input(p.x, p.t % st.m);
  }
  BasicNeighbors<D, V> nbrs{};
  int operands = 1;  // self operand
  for (int i = 0; i < D; ++i) {
    for (int s = 0; s < 2; ++s) {
      geom::Point<D> q = p;
      q.x[i] += (s == 0 ? -1 : 1);
      q.t = p.t - 1;
      if (st.in_space(q.x)) {
        nbrs[2 * i + s] = lookup(q);
        ++operands;
      }
    }
  }
  return {rule(p, self_prev, nbrs), operands};
}

// ---------------------------------------------------------------------
// Scalar -> batch broadcast adapters: lift any existing scalar guest
// into the SoA form, lane by lane. broadcast_rule applies the scalar
// rule independently per lane (the lanes never interact — the
// lane-isolation property tests pin this); broadcast_input starts all
// 64 lanes from the same scenario, lane_inputs from 64 distinct ones.
// ---------------------------------------------------------------------

/// Apply a scalar rule independently to each of the 64 lanes.
template <int D>
BatchRule<D> broadcast_rule(const Rule<D>& rule) {
  BSMP_REQUIRE(rule != nullptr);
  return rule.visit([](const auto& kernel) -> BatchRule<D> {
    return [kernel](const geom::Point<D>& p, LaneBatch self,
                    const NeighborBatches<D>& nbrs) -> LaneBatch {
      LaneBatch out;
      NeighborWords<D> lane_nbrs{};
      for (int l = 0; l < kLanes; ++l) {
        for (int k = 0; k < geom::kMono<D>; ++k) lane_nbrs[k] = nbrs[k][l];
        out[l] = kernel(p, self[l], lane_nbrs);
      }
      return out;
    };
  });
}

/// Start every lane from the same scalar input.
template <int D>
BatchInput<D> broadcast_input(InputFn<D> input) {
  BSMP_REQUIRE(input != nullptr);
  return [input = std::move(input)](const std::array<int64_t, D>& x,
                                    int64_t cell) -> LaneBatch {
    return LaneBatch::splat(input(x, cell));
  };
}

/// Start lane l from its own scalar input function — the ensemble
/// form: 64 initial conditions, one charged run.
template <int D>
BatchInput<D> lane_inputs(std::array<InputFn<D>, kLanes> inputs) {
  for (const auto& f : inputs) BSMP_REQUIRE(f != nullptr);
  return [inputs = std::move(inputs)](const std::array<int64_t, D>& x,
                                      int64_t cell) -> LaneBatch {
    LaneBatch b;
    for (int l = 0; l < kLanes; ++l) b[l] = inputs[static_cast<std::size_t>(l)](x, cell);
    return b;
  };
}

/// Lift a whole scalar guest: same stencil, per-lane rule, broadcast
/// inputs. Running it charges exactly what the scalar guest charges
/// and computes the scalar values in every lane.
template <int D>
BatchGuest<D> broadcast_guest(const Guest<D>& g) {
  BatchGuest<D> b;
  b.stencil = g.stencil;
  b.rule = broadcast_rule<D>(g.rule);
  b.input = broadcast_input<D>(g.input);
  return b;
}

}  // namespace bsmp::sep
