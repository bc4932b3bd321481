// Scheme advisor and constant calibration.
//
// The paper's bounds tell which simulation scheme wins asymptotically;
// a user of the library also wants (a) the recommended scheme for a
// concrete (d, n, m, p) and (b) predictions that account for the
// implementation constants. The advisor compares the closed-form
// bounds; the calibrator fits per-mechanism constants from a few
// measurements (via analytic::fit_least_squares) and predicts measured
// slowdowns at other sizes.
//
// Calibration is the *model* only: it never runs a simulator itself.
// The canonical way to feed it is tables::run_calibration
// (src/tables/calibration.hpp), which measures the training points
// through engine::Sweep with PlanCache-memoized reference runs — the
// same deterministic harness that produces the E-tables — so the
// measured-constant table is byte-identical at any thread count.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "analytic/tradeoff.hpp"

namespace bsmp::analytic {

enum class Scheme { kNaive, kDcUniproc, kMultiproc };
const char* to_string(Scheme s);

struct Recommendation {
  Scheme scheme;
  double predicted_slowdown;  ///< the winning closed-form bound
  /// Strip width for the Theorem-4 schedule; set only when `scheme` is
  /// kMultiproc at d=1. In particular it stays 0 when the
  /// recommendation is kNaive — including the whole of Range 4, where
  /// analytic::s_star() itself would return n/p. That is not a
  /// contradiction: s* = n/p means one strip per processor, and the
  /// two-regime scheme with one strip per processor *is* the naive
  /// simulation, so there is no separate multiproc schedule to
  /// parameterize. See recommend().
  double s_star = 0;
  Range range = Range::k1;
};

/// Recommend a simulation scheme for simulating Md(n,n,m) on Md(n,p,m)
/// from the constant-free bounds: naive (Prop. 1) vs the Theorem-1
/// scheme.
///
/// The m >= n^(1/d) case (Range 4) coincides with naive: there the
/// locality factor A is (n/p)^(1/d), Theorem 1's bound equals
/// Proposition 1's, and the optimizing strip width is the full
/// per-processor strip s* = n/p — the "scheme" is to hand each
/// processor one contiguous strip and replay it, which is exactly the
/// naive simulation. recommend() therefore reports kNaive for Range 4
/// (with Recommendation::s_star left 0; see its comment). The
/// coincidence already holds at the boundary m = n^(1/d), the top of
/// Range 3, where range-3's s* = m/p equals n/p; the boundary point
/// m = n at d=1 is pinned by a unit test (test_advisor_io).
Recommendation recommend(int d, double n, double m, double p);

/// The shared predictor basis of Calibration and
/// MechanismCalibration: the model's per-mechanism terms
///   {(n/p) * A_relocation, (n/p) * A_execution, (n/p) * A_communication}
/// at s = feasible_s_star(n,m,p). These are what the metrics-v3
/// calibration_points record as term_reloc / term_exec / term_comm.
std::array<double, 3> calibration_terms(double n, double m, double p);

/// Calibration: given measured slowdowns at a few (n, m, p) points,
/// fit the constants of the model
///   slowdown ~ (n/p) * (c_r * t_reloc + c_e * t_exec + c_c * t_comm)
/// evaluated at s = feasible_s_star(n,m,p), and predict elsewhere.
class Calibration {
 public:
  /// Add one training point: the slowdown measured when simulating
  /// Md(n,n,m) on Md(n,p,m) with the Theorem-4 scheme at strip width
  /// feasible_s_star(n,m,p). Invalidates a previous fit (fitted()
  /// returns false until the next fit()).
  /// \pre slowdown > 0.
  void add_measurement(double n, double m, double p, double slowdown);

  /// Least-squares fit of the three mechanism constants with relative
  /// error weighting (every training point carries equal weight
  /// regardless of magnitude; constants are clamped non-negative by
  /// fit_least_squares).
  /// \pre at least 3 measurements have been added.
  void fit();

  /// Whether fit() has run on the current measurement set.
  bool fitted() const { return fitted_; }
  /// Fitted constant of the Regime-1 relocation mechanism.
  /// \pre fitted().
  double c_relocation() const { return c_[0]; }
  /// Fitted constant of the subtile execution mechanism. \pre fitted().
  double c_execution() const { return c_[1]; }
  /// Fitted constant of the cooperating-mode communication mechanism.
  /// \pre fitted().
  double c_communication() const { return c_[2]; }

  /// Predicted measured slowdown at (n, m, p): the fitted constants
  /// applied to the model terms at s = feasible_s_star(n,m,p).
  /// \pre fitted().
  double predict(double n, double m, double p) const;

  /// Mean relative error of the fit on the training points.
  /// \pre fitted().
  double training_error() const;

  /// Number of training points added so far.
  std::size_t num_measurements() const { return y_.size(); }

 private:
  static std::array<double, 3> terms(double n, double m, double p);

  std::vector<std::array<double, 3>> x_;
  std::vector<double> y_;
  std::array<double, 3> c_{};
  bool fitted_ = false;
};

/// Per-mechanism, per-range calibration: the alternative fit the
/// ledger-derived calibration points of a metrics artifact enable.
///
/// Calibration above solves one coupled 3-constant least-squares
/// problem against *total* slowdowns; when one mechanism dominates the
/// grid (execution does), the solver happily zeroes the other two
/// constants and the model loses all relocation/communication
/// sensitivity — the committed aggregate fit has c_reloc = c_comm = 0
/// and under-predicts the n=256 holdout by ~2x. This class instead
/// takes each training point's *measured per-mechanism decomposition*
/// (slow_k = slowdown * ledger cost_k / sum of mechanism costs, from
/// the simulator's virtual-time ledger — deterministic, not wall
/// clock) and fits each constant against its own mechanism's share:
/// three decoupled one-parameter regressions through the origin in
/// absolute units,
///   c_k = sum(T_k * slow_k) / sum(T_k^2)
/// so c_k > 0 whenever mechanism k charged anything anywhere. This is
/// deliberately NOT the 1/y relative weighting the aggregate
/// Calibration uses: mechanism shares span orders of magnitude across
/// a sweep, and the large-n regime these constants must extrapolate
/// into is exactly what relative weighting votes down (measured on the
/// S*-ablation sweep, the n=256 holdout ratio is ~0.76 absolute vs
/// ~0.33 relative, against ~0.52 for the aggregate fit).
///
/// Constants are additionally split by analytic tradeoff range
/// (classify_range at d=1): the A-terms change shape across ranges,
/// and a constant fitted in range 2 extrapolates poorly into range 3.
/// Ranges with no training points fall back to the pooled (all-point)
/// constants.
class MechanismCalibration {
 public:
  /// Add one training point: total measured slowdown decomposed into
  /// per-mechanism shares (slow_reloc + slow_exec + slow_comm ==
  /// slowdown, up to the ledger's excluded preprocess cost).
  /// \pre slowdown > 0; shares >= 0.
  void add_measurement(double n, double m, double p, double slowdown,
                       double slow_reloc, double slow_exec,
                       double slow_comm);

  /// Fit pooled and per-range constants. \pre at least 1 measurement.
  void fit();

  bool fitted() const { return fitted_; }

  /// Fitted constants of the range `r` (pooled fallback when the
  /// range had no training points). \pre fitted().
  double c_relocation(Range r) const { return constants(r)[0]; }
  double c_execution(Range r) const { return constants(r)[1]; }
  double c_communication(Range r) const { return constants(r)[2]; }
  /// Pooled (all-point) constants. \pre fitted().
  double c_relocation() const { return pooled_[0]; }
  double c_execution() const { return pooled_[1]; }
  double c_communication() const { return pooled_[2]; }

  /// Predicted total slowdown at (n, m, p): the point's range's
  /// constants applied to calibration_terms(n, m, p). \pre fitted().
  double predict(double n, double m, double p) const;

  /// Mean relative error of the total-slowdown prediction on the
  /// training points. \pre fitted().
  double training_error() const;

  std::size_t num_measurements() const { return y_.size(); }

 private:
  const std::array<double, 3>& constants(Range r) const;

  struct Sample {
    std::array<double, 3> t;      ///< calibration_terms at the point
    std::array<double, 3> share;  ///< measured per-mechanism slowdown
    double y;                     ///< total slowdown
    Range range;
    double n, m, p;
  };
  std::vector<Sample> samples_;
  std::vector<double> y_;  ///< parallel totals (num_measurements)
  std::array<double, 3> pooled_{};
  std::array<std::array<double, 3>, 4> per_range_{};
  std::array<bool, 4> has_range_{};
  bool fitted_ = false;
};

}  // namespace bsmp::analytic
