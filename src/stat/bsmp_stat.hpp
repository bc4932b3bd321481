// bsmp-stat — analysis toolchain over the repo's JSON artifacts.
//
// The repo emits two artifact families: bsmp-metrics-v1..v4 reports
// (engine/metrics.hpp) and google-benchmark --benchmark_out files (the
// committed bench/BENCH_*.json baselines). This library gives both a
// uniform read path and three operations, exposed by the `bsmp-stat`
// binary (tools/bsmp_stat.cpp); each refuses any other document with
// exit 2:
//
//   show  — human-readable report: manifest, per-pass wall clock and
//           calibration points. A run whose trace ring buffers dropped
//           events (manifest "trace_dropped") gets a loud banner: its
//           trace file's timeline is truncated.
//   diff  — compare a candidate artifact against a baseline under a
//           declared tolerance spec (bench/tolerances.json). Two gate
//           classes: *ratio gates* relate numbers within the candidate
//           alone (simd >= 2x dense) — hardware-independent, always
//           enforced; *drift tolerances* compare candidate fields
//           against the baseline's — meaningful only on the same
//           hardware, so the diff refuses them (loudly, exit 0; exit 3
//           under --require-comparable) when hostname or num_cpus
//           differ or are unknown. Nonzero exit on regression makes
//           this the CI perf sentinel; a --report file that cannot be
//           written is exit 2.
//   fit   — least-squares per-mechanism, per-range constants from the
//           per-pass calibration_points array (metrics v4 and later)
//           (analytic::MechanismCalibration), reported against the
//           aggregate 3-constant fit on the same samples.
//
// Everything here is deterministic given the artifact bytes; all
// wall-clock nondeterminism lives in the artifacts themselves.
#pragma once

#include <iosfwd>
#include <string>

#include "core/json.hpp"

namespace bsmp::stat {

/// Artifact family, detected from the document shape — not the file
/// name, so renamed or piped artifacts classify the same.
enum class ArtifactKind {
  kMetrics,          ///< "schema": "bsmp-metrics-v*"
  kGoogleBenchmark,  ///< top-level "context" + "benchmarks"
  kUnknown,
};

/// A loaded artifact with its comparability identity lifted out of the
/// format-specific manifest ("" / 0 when the producer did not record
/// hardware — pre-v3 metrics files).
struct Artifact {
  ArtifactKind kind = ArtifactKind::kUnknown;
  core::json::Value root;
  std::string path;
  std::string schema;    ///< metrics schema string, or "google-benchmark"
  std::string name;      ///< report name / benchmark executable
  std::string hostname;  ///< manifest hostname / context.host_name
  int num_cpus = 0;      ///< manifest num_cpus / context.num_cpus
};

struct LoadResult {
  bool ok = false;
  Artifact artifact;
  std::string error;
};

/// Parse and classify a file. kUnknown documents load fine (every
/// operation then refuses them); parse/IO failures report in `error`.
LoadResult load_artifact(const std::string& path);

/// Whether drift comparisons between the two runs are meaningful: both
/// recorded a hardware identity and the identities match.
bool comparable_hardware(const Artifact& a, const Artifact& b);

/// Process exit codes of the CLI (and of run_diff): kOk covers both
/// "all gates passed" and "cleanly skipped" (cross-hardware baseline
/// without --require-comparable).
inline constexpr int kExitOk = 0;
inline constexpr int kExitRegression = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitRefused = 3;

/// `bsmp-stat show`: human-readable report on `os`.
int run_show(const Artifact& a, std::ostream& os);

struct DiffOptions {
  std::string tolerances_path;  ///< "" = structural checks only
  std::string report_path;      ///< also write the report here ("" = no)
  bool require_comparable = false;
};

/// `bsmp-stat diff baseline candidate`.
int run_diff(const Artifact& baseline, const Artifact& candidate,
             const DiffOptions& opt, std::ostream& os);

/// `bsmp-stat fit`: per-mechanism constants from a metrics (v4 or
/// later) artifact's calibration points.
int run_fit(const Artifact& a, std::ostream& os);

/// Full CLI: argv[1] is the subcommand. Writes usage to `err` on
/// kExitUsage.
int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err);

}  // namespace bsmp::stat
