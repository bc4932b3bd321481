// Memory access-cost functions.
//
// Definition 1 of the paper: an f(x)-H-RAM is a random access machine
// where an access to address x takes time f(x). The paper's machines
// use f(x) = (x/m)^(1/d), where m is the number of memory cells that
// fit in a d-dimensional cube of unit side. Because one time unit is
// the cost of an instruction on the lowest address, we clamp every
// access cost from below at 1 (an instruction can never be faster than
// the unit instruction).
//
// We also provide the uniform-cost RAM (the "instantaneous model" used
// as the Brent baseline) and a generic power law a*x^alpha (the form
// assumed by Proposition 3).
//
// operator() is the one definition of every charged access cost; it
// evaluates std::pow except for d = 1, where x/m is already the exact
// result. Per-access callers go through a CostTable (cost_table.hpp),
// which calls operator() once per distinct address and keeps its bits.
#pragma once

#include <cstdint>

#include "core/cost.hpp"

namespace bsmp::hram {

class AccessFn {
 public:
  /// Uniform cost: f(x) = 1 (classical RAM, instantaneous model).
  static AccessFn unit();

  /// The paper's hierarchical cost: f(x) = max(1, (x/m)^(1/d)).
  /// `m` is cells per unit cube, `d` in {1,2,3}.
  static AccessFn hierarchical(int d, double m);

  /// Generic power law f(x) = max(1, a * x^alpha) (Proposition 3 form).
  static AccessFn power(double a, double alpha);

  /// Cost of a single access to `addr`.
  core::Cost operator()(std::uint64_t addr) const;

  /// Cost of touching `len` consecutive words ending no further than
  /// `max_addr`. Charged as len * f(max_addr): an upper bound on the
  /// exact per-word sum, and the bound the paper uses in Prop. 2.
  core::Cost block(std::uint64_t max_addr, std::uint64_t len) const;

  /// Cost of the same block transfer on a *pipelined* memory (Section 6
  /// extension): one latency f(max_addr) plus one word per unit time.
  core::Cost block_pipelined(std::uint64_t max_addr, std::uint64_t len) const;

  bool is_unit() const { return kind_ == Kind::kUnit; }

 private:
  enum class Kind { kUnit, kHierarchical, kPower };

  AccessFn(Kind kind, double a, double b) : kind_(kind), a_(a), b_(b) {}

  Kind kind_;
  double a_;  // hierarchical: m;        power: a
  double b_;  // hierarchical: 1.0/d;    power: alpha
};

}  // namespace bsmp::hram
