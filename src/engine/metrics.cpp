#include "engine/metrics.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>

namespace bsmp::engine {

double SweepMetric::busy_s() const {
  double b = 0;
  for (const auto& p : per_point) b += p.run_s;
  return b;
}

double SweepMetric::occupancy() const {
  double denom = wall_s * static_cast<double>(pool_threads);
  return denom <= 0 ? 0.0 : busy_s() / denom;
}

void Metrics::record(SweepMetric m) {
  std::lock_guard<std::mutex> lk(mu_);
  sweeps_.push_back(std::move(m));
}

std::vector<SweepMetric> Metrics::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sweeps_;
}

std::size_t Metrics::num_sweeps() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sweeps_.size();
}

void Metrics::record_hot(HotPathMetric m) {
  std::lock_guard<std::mutex> lk(mu_);
  hot_.push_back(std::move(m));
}

std::vector<HotPathMetric> Metrics::hot_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hot_;
}

void Metrics::record_calibration(CalibrationSample s) {
  std::lock_guard<std::mutex> lk(mu_);
  calibration_.push_back(std::move(s));
}

std::vector<CalibrationSample> Metrics::calibration_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return calibration_;
}

void Metrics::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  sweeps_.clear();
  hot_.clear();
  calibration_.clear();
}

double MetricsReport::speedup() const {
  if (passes.size() < 2) return 1.0;
  double last = passes.back().seconds;
  return last > 0 ? passes.front().seconds / last : 0.0;
}

namespace {

// Labels are caller-controlled ASCII, but escape defensively so the
// artifact is always valid JSON.
void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

void json_real(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

void json_tasks(std::ostream& os, const TaskStats& t) {
  os << "{\"spawned\": " << t.spawned << ", \"inlined\": " << t.inlined
     << ", \"stolen\": " << t.stolen << ", \"steal_ops\": " << t.steal_ops
     << ", \"join_waits\": " << t.join_waits;
  // Per-mechanism split: only phases that saw any fork/park activity.
  bool any = false;
  for (std::size_t i = 0; i < kNumForkPhases; ++i) {
    const PhaseTaskStats& p = t.phase[i];
    if (p.spawned == 0 && p.inlined == 0 && p.join_waits == 0 &&
        p.park_ns == 0)
      continue;
    os << (any ? ", " : ", \"phases\": {");
    any = true;
    json_string(os, fork_phase_name(static_cast<ForkPhase>(i)));
    os << ": {\"spawned\": " << p.spawned << ", \"inlined\": " << p.inlined
       << ", \"join_waits\": " << p.join_waits
       << ", \"park_ns\": " << p.park_ns << "}";
  }
  if (any) os << "}";
  os << "}";
}

}  // namespace

void MetricsReport::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"bsmp-metrics-v5\",\n  \"name\": ";
  json_string(os, name);
  os << ",\n  \"speedup\": ";
  json_real(os, speedup());
  os << ",\n  \"manifest\": {\n    \"name\": ";
  json_string(os, manifest.name);
  os << ",\n    \"git_sha\": ";
  json_string(os, manifest.git_sha);
  os << ",\n    \"build_type\": ";
  json_string(os, manifest.build_type);
  os << ",\n    \"compiler\": ";
  json_string(os, manifest.compiler);
  os << ",\n    \"hardware_threads\": " << manifest.hardware_threads
     << ",\n    \"num_cpus\": " << manifest.num_cpus
     << ",\n    \"hostname\": ";
  json_string(os, manifest.hostname);
  os << ",\n    \"simd_isa\": ";
  json_string(os, manifest.simd_isa);
  os << ",\n    \"trace_compiled\": " << (manifest.trace_compiled ? 1 : 0)
     << ",\n    \"trace_enabled\": " << (manifest.trace_enabled ? 1 : 0);
  for (const auto& [k, v] : manifest.knobs) {
    os << ",\n    ";
    json_string(os, k);
    os << ": ";
    json_string(os, v);
  }
  if (!manifest.trace_file.empty()) {
    os << ",\n    \"trace_file\": ";
    json_string(os, manifest.trace_file);
    os << ",\n    \"trace_events\": " << manifest.trace_events
       << ",\n    \"trace_dropped\": " << manifest.trace_dropped
       << ",\n    \"trace_digest\": ";
    json_string(os, manifest.trace_digest);
  }
  os << "\n  },\n  \"passes\": [";
  for (std::size_t pi = 0; pi < passes.size(); ++pi) {
    const auto& pass = passes[pi];
    os << (pi ? ",\n    {" : "\n    {");
    os << "\n      \"threads\": " << pass.threads << ",\n      \"seconds\": ";
    json_real(os, pass.seconds);
    os << ",\n      \"cache\": {\"hits\": " << pass.cache.hits
       << ", \"misses\": " << pass.cache.misses
       << ", \"builds\": " << pass.cache.builds << ", \"hit_rate\": ";
    json_real(os, pass.cache.hit_rate());
    os << "},\n      \"tasks\": ";
    json_tasks(os, pass.tasks);
    os << ",\n      \"sweeps\": [";
    for (std::size_t si = 0; si < pass.sweeps.size(); ++si) {
      const auto& sw = pass.sweeps[si];
      os << (si ? ",\n        {" : "\n        {");
      os << "\n          \"label\": ";
      json_string(os, sw.label);
      os << ",\n          \"points\": " << sw.points
         << ", \"pool_threads\": " << sw.pool_threads << ",\n          "
         << "\"wall_s\": ";
      json_real(os, sw.wall_s);
      os << ", \"busy_s\": ";
      json_real(os, sw.busy_s());
      os << ", \"occupancy\": ";
      json_real(os, sw.occupancy());
      os << ",\n          \"tasks\": ";
      json_tasks(os, sw.tasks);
      os << ",\n          \"per_point\": [";
      for (std::size_t i = 0; i < sw.per_point.size(); ++i) {
        const auto& pt = sw.per_point[i];
        os << (i ? ", " : "") << "{\"index\": " << pt.index
           << ", \"queue_wait_s\": ";
        json_real(os, pt.queue_wait_s);
        os << ", \"run_s\": ";
        json_real(os, pt.run_s);
        os << "}";
      }
      os << "]\n        }";
    }
    os << (pass.sweeps.empty() ? "]" : "\n      ]");
    os << ",\n      \"hot\": [";
    for (std::size_t hi = 0; hi < pass.hot.size(); ++hi) {
      const auto& h = pass.hot[hi];
      os << (hi ? ",\n        {" : "\n        {");
      os << "\n          \"label\": ";
      json_string(os, h.label);
      os << ",\n          \"vertices\": " << h.vertices
         << ", \"seconds\": ";
      json_real(os, h.seconds);
      os << ", \"vertices_per_sec\": ";
      json_real(os, h.vertices_per_sec());
      os << ",\n          \"peak_staging_words\": " << h.peak_staging_words
         << ", \"staging_allocs\": " << h.staging_allocs
         << ",\n          \"lanes\": " << h.lanes
         << ", \"scenarios_per_sec\": ";
      json_real(os, h.scenarios_per_sec());
      os << ",\n          \"simd_isa\": ";
      json_string(os, h.simd_isa);
      os << ", \"simd_lanes\": " << h.simd_lanes;
      os << "\n        }";
    }
    os << (pass.hot.empty() ? "]" : "\n      ]");
    os << ",\n      \"calibration_points\": [";
    for (std::size_t ci = 0; ci < pass.calibration.size(); ++ci) {
      const CalibrationSample& cs = pass.calibration[ci];
      os << (ci ? ",\n        {" : "\n        {");
      os << "\"n\": " << cs.n << ", \"m\": " << cs.m << ", \"p\": " << cs.p
         << ", \"s\": ";
      json_real(os, cs.s);
      os << ", \"range\": ";
      json_string(os, cs.range);
      os << ", \"holdout\": " << (cs.holdout ? 1 : 0)
         << ",\n         \"slowdown\": ";
      json_real(os, cs.slowdown);
      os << ", \"slow_reloc\": ";
      json_real(os, cs.slow_reloc);
      os << ", \"slow_exec\": ";
      json_real(os, cs.slow_exec);
      os << ", \"slow_comm\": ";
      json_real(os, cs.slow_comm);
      os << ",\n         \"term_reloc\": ";
      json_real(os, cs.term_reloc);
      os << ", \"term_exec\": ";
      json_real(os, cs.term_exec);
      os << ", \"term_comm\": ";
      json_real(os, cs.term_comm);
      os << "}";
    }
    os << (pass.calibration.empty() ? "]" : "\n      ]");
    os << "\n    }";
  }
  os << (passes.empty() ? "]" : "\n  ]") << "\n}\n";
}

bool MetricsReport::write_json_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_json(f);
  return static_cast<bool>(f);
}

std::string metrics_filename(const std::string& name) {
  return "metrics_" + name + ".json";
}

std::string metrics_dir() {
  const char* v = std::getenv("BSMP_METRICS_DIR");
  return (v != nullptr && *v != '\0') ? std::string(v) : std::string("metrics");
}

bool ensure_metrics_dir() {
  std::error_code ec;
  std::filesystem::create_directories(metrics_dir(), ec);
  return !ec;
}

std::string metrics_output_path(const std::string& name) {
  ensure_metrics_dir();
  return (std::filesystem::path(metrics_dir()) / metrics_filename(name))
      .string();
}

std::string trace_output_path(const std::string& name) {
  ensure_metrics_dir();
  return (std::filesystem::path(metrics_dir()) / ("trace_" + name + ".json"))
      .string();
}

}  // namespace bsmp::engine
