// Common result type of every simulator: charged virtual time, its
// breakdown, and the guest-visible output values for equivalence
// checking.
#pragma once

#include <cstdint>

#include "core/cost.hpp"
#include "machine/spec.hpp"
#include "sep/executor.hpp"
#include "sim/final_values.hpp"

namespace bsmp::sim {

template <int D, class V = sep::Word>
struct SimResult {
  core::CostLedger ledger;      ///< aggregate charges across processors
  core::Cost time = 0;          ///< host virtual time (makespan if p > 1)
  core::Cost guest_time = 0;    ///< Tn: steps of the simulated guest
  core::Cost preprocess = 0;    ///< one-time cost (memory rearrangement),
                                ///< excluded from `time` as the paper
                                ///< amortizes it over repeated cycles
  std::int64_t vertices = 0;    ///< dag vertices executed
  std::int64_t row_leaves = 0;  ///< leaves run on the SIMD row path
  double utilization = 1.0;     ///< busy / (p * makespan)

  /// The guest-visible outputs: the last-written value of every memory
  /// cell (one point per node per cell), in final_points order.
  FinalValues<D, V> final_values;

  double slowdown() const { return time / guest_time; }
};

}  // namespace bsmp::sim
