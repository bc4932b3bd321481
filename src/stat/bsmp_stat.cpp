#include "stat/bsmp_stat.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

#include "analytic/advisor.hpp"
#include "analytic/tradeoff.hpp"

namespace bsmp::stat {

namespace json = core::json;

namespace {

std::string basename_of(const std::string& path) {
  std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// google-benchmark entry lookup with aggregate fallback: a
/// repetitions>1 baseline holds only _mean/_median/... rows while a
/// fresh single-rep run holds the bare name; gates written against the
/// bare name must read both.
const json::Value& find_benchmark(const json::Value& root,
                                  const std::string& name) {
  static const json::Value kNull;
  for (const char* suffix : {"", "_median", "_mean"}) {
    std::string want = name + suffix;
    for (const auto& b : root["benchmarks"].items())
      if (b["name"].as_string() == want) return b;
  }
  return kNull;
}

struct Failure {
  std::string what;
};

/// The diff accumulates its report here so --report can tee it to a
/// file verbatim.
struct DiffState {
  std::ostringstream report;
  std::vector<Failure> failures;
  bool refused_drift = false;

  void fail(const std::string& what) {
    failures.push_back({what});
    report << "FAIL: " << what << "\n";
  }
};

// ---- tolerance spec -------------------------------------------------

struct RatioGate {
  std::string label;
  std::string num, den;            ///< benchmark names
  std::string num_metric, den_metric;
  double min = 0;
  double min_cpus = 0;    ///< gate applies only when cpus >= this
  double den_floor = 0;   ///< clamp denominator up (warm-up gates)
};

struct DriftSpec {
  std::string metric;
  double rel_tol = 0;
  bool lower_is_better = false;
};

struct FileSpec {
  std::vector<RatioGate> ratio_gates;
  std::vector<DriftSpec> drift;
};

bool load_spec_for(const std::string& tolerances_path,
                   const std::string& file_key, FileSpec& out,
                   std::string& error) {
  json::Parsed p = json::parse_file(tolerances_path);
  if (!p.ok) {
    error = p.error;
    return false;
  }
  const json::Value& files = p.value["files"];
  const json::Value& spec = files[file_key];
  if (spec.is_null()) return true;  // no gates declared for this file
  for (const auto& g : spec["ratio_gates"].items()) {
    RatioGate rg;
    rg.label = g["label"].as_string();
    rg.num = g["num"].as_string();
    rg.den = g["den"].as_string();
    std::string metric = g["metric"].as_string();
    rg.num_metric = g.has("num_metric") ? g["num_metric"].as_string() : metric;
    rg.den_metric = g.has("den_metric") ? g["den_metric"].as_string() : metric;
    rg.min = g["min"].as_number();
    rg.min_cpus = g["min_cpus"].as_number(0);
    rg.den_floor = g["den_floor"].as_number(0);
    out.ratio_gates.push_back(std::move(rg));
  }
  for (const auto& d : spec["drift"].items()) {
    DriftSpec ds;
    ds.metric = d["metric"].as_string();
    ds.rel_tol = d["rel_tol"].as_number();
    ds.lower_is_better = d["lower_is_better"].as_bool(false);
    out.drift.push_back(std::move(ds));
  }
  return true;
}

}  // namespace

LoadResult load_artifact(const std::string& path) {
  LoadResult out;
  json::Parsed p = json::parse_file(path);
  if (!p.ok) {
    out.error = p.error;
    return out;
  }
  Artifact& a = out.artifact;
  a.root = std::move(p.value);
  a.path = path;
  const std::string& schema = a.root["schema"].as_string();
  if (schema.rfind("bsmp-metrics-", 0) == 0) {
    a.kind = ArtifactKind::kMetrics;
    a.schema = schema;
    a.name = a.root["name"].as_string();
    a.hostname = a.root["manifest"]["hostname"].as_string();
    a.num_cpus = static_cast<int>(a.root["manifest"]["num_cpus"].as_number(0));
  } else if (a.root.has("context") && a.root.has("benchmarks")) {
    a.kind = ArtifactKind::kGoogleBenchmark;
    a.schema = "google-benchmark";
    a.name = a.root["context"]["executable"].as_string();
    a.hostname = a.root["context"]["host_name"].as_string();
    a.num_cpus =
        static_cast<int>(a.root["context"]["num_cpus"].as_number(0));
  }
  out.ok = true;
  return out;
}

bool comparable_hardware(const Artifact& a, const Artifact& b) {
  if (a.hostname.empty() || b.hostname.empty()) return false;
  if (a.num_cpus <= 0 || b.num_cpus <= 0) return false;
  return a.hostname == b.hostname && a.num_cpus == b.num_cpus;
}

int run_show(const Artifact& a, std::ostream& os) {
  os << basename_of(a.path) << ": " << a.schema;
  if (!a.name.empty()) os << " '" << a.name << "'";
  os << "\n";
  if (a.kind == ArtifactKind::kGoogleBenchmark) {
    const json::Value& ctx = a.root["context"];
    os << "  host " << a.hostname << ", " << a.num_cpus << " cpus, "
       << ctx["library_build_type"].as_string() << " build\n";
    for (const auto& b : a.root["benchmarks"].items()) {
      os << "  " << b["name"].as_string() << ": "
         << fmt(b["real_time"].as_number()) << " "
         << b["time_unit"].as_string();
      for (const char* extra :
           {"vertices_per_sec", "scenarios_per_sec", "points_per_sec"})
        if (b.has(extra))
          os << ", " << extra << " " << fmt(b[extra].as_number());
      os << "\n";
    }
    return kExitOk;
  }
  if (a.kind != ArtifactKind::kMetrics) {
    os << "error: unrecognized artifact (neither bsmp-metrics nor "
          "google-benchmark)\n";
    return kExitUsage;
  }

  const json::Value& man = a.root["manifest"];
  os << "  host " << (a.hostname.empty() ? "?" : a.hostname) << ", "
     << a.num_cpus << " cpus, " << man["build_type"].as_string()
     << " build, git " << man["git_sha"].as_string() << ", simd "
     << man["simd_isa"].as_string() << "\n";

  const double drops = man["trace_dropped"].as_number(0);
  if (drops > 0) {
    os << "\n"
       << "  ********************************************************\n"
       << "  *  WARNING: " << fmt(drops) << " trace events DROPPED (ring "
       << "buffer full).\n"
       << "  *  The span timeline in the trace file is truncated.\n"
       << "  *  Re-run with a larger BSMP_TRACE_BUFFER for a\n"
       << "  *  complete trace.\n"
       << "  ********************************************************\n\n";
  }

  os << "  speedup " << fmt(a.root["speedup"].as_number()) << "\n";
  for (const auto& pass : a.root["passes"].items()) {
    os << "  pass threads=" << fmt(pass["threads"].as_number()) << "  "
       << fmt(pass["seconds"].as_number()) << " s, "
       << fmt(pass["sweeps"].items().size()) << " sweeps\n";
    const auto& cal = pass["calibration_points"].items();
    if (cal.empty()) continue;
    os << "    calibration points (" << cal.size() << "):\n";
    for (const auto& c : cal) {
      os << "      n=" << fmt(c["n"].as_number())
         << " m=" << fmt(c["m"].as_number())
         << " p=" << fmt(c["p"].as_number()) << " range "
         << c["range"].as_string()
         << (c["holdout"].as_number() != 0 ? " [holdout]" : "")
         << ": slowdown " << fmt(c["slowdown"].as_number())
         << " = reloc " << fmt(c["slow_reloc"].as_number()) << " + exec "
         << fmt(c["slow_exec"].as_number()) << " + comm "
         << fmt(c["slow_comm"].as_number()) << "\n";
    }
  }
  return kExitOk;
}

namespace {

void diff_gbench(const Artifact& baseline, const Artifact& candidate,
                 const FileSpec& spec, bool comparable, DiffState& st) {
  std::ostream& os = st.report;
  // Ratio gates: candidate-only, hardware-independent.
  for (const RatioGate& g : spec.ratio_gates) {
    if (g.min_cpus > 0 && candidate.num_cpus < g.min_cpus) {
      os << "skip (needs >= " << g.min_cpus << " cpus, have "
         << candidate.num_cpus << "): " << g.label << "\n";
      continue;
    }
    const json::Value& nb = find_benchmark(candidate.root, g.num);
    const json::Value& db = find_benchmark(candidate.root, g.den);
    if (nb.is_null() || db.is_null() || !nb.has(g.num_metric) ||
        !db.has(g.den_metric)) {
      st.fail(g.label + ": benchmark or metric missing from candidate");
      continue;
    }
    double num = nb[g.num_metric].as_number();
    double den = std::max(db[g.den_metric].as_number(), g.den_floor);
    double ratio = den > 0 ? num / den : 0.0;
    os << (ratio >= g.min ? "ok  " : "FAIL") << "  " << g.label << ": "
       << fmt(ratio) << "x (bar " << fmt(g.min) << "x)\n";
    if (ratio < g.min)
      st.failures.push_back({g.label + ": " + fmt(ratio) + "x under " +
                             fmt(g.min) + "x"});
  }
  // Drift vs the baseline: same hardware only.
  if (spec.drift.empty()) return;
  if (!comparable) {
    st.refused_drift = true;
    os << "REFUSED drift comparison: baseline host '" << baseline.hostname
       << "' (" << baseline.num_cpus << " cpus) vs candidate host '"
       << candidate.hostname << "' (" << candidate.num_cpus
       << " cpus) — cross-hardware numbers would gate the machines, not "
          "the code\n";
    return;
  }
  for (const DriftSpec& d : spec.drift) {
    for (const auto& bb : baseline.root["benchmarks"].items()) {
      if (!bb.has(d.metric)) continue;
      const std::string& bname = bb["name"].as_string();
      const json::Value& cb = find_benchmark(candidate.root, bname);
      if (cb.is_null() || !cb.has(d.metric)) continue;
      double base = bb[d.metric].as_number();
      double cand = cb[d.metric].as_number();
      if (base <= 0) continue;
      bool regressed = d.lower_is_better
                           ? cand > base * (1.0 + d.rel_tol)
                           : cand < base * (1.0 - d.rel_tol);
      os << (regressed ? "FAIL" : "ok  ") << "  " << bname << " "
         << d.metric << ": " << fmt(base) << " -> " << fmt(cand) << " ("
         << fmt(cand / base) << "x, tol " << fmt(d.rel_tol) << ")\n";
      if (regressed)
        st.failures.push_back({bname + " " + d.metric + " drifted " +
                               fmt(cand / base) + "x beyond tolerance"});
    }
  }
}

void diff_metrics(const Artifact& baseline, const Artifact& candidate,
                  const FileSpec& spec, bool comparable, DiffState& st) {
  std::ostream& os = st.report;
  const auto& bp = baseline.root["passes"].items();
  const auto& cp = candidate.root["passes"].items();
  if (baseline.name != candidate.name)
    st.fail("report names differ: '" + baseline.name + "' vs '" +
            candidate.name + "'");
  if (bp.size() != cp.size()) {
    st.fail("pass count differs: " + fmt((double)bp.size()) + " vs " +
            fmt((double)cp.size()));
    return;
  }
  for (std::size_t i = 0; i < bp.size(); ++i) {
    // Structural identity: the sweep layout is deterministic, so any
    // difference is a real change, not noise.
    const auto& bs = bp[i]["sweeps"].items();
    const auto& cs = cp[i]["sweeps"].items();
    if (bs.size() != cs.size()) {
      st.fail("pass " + fmt((double)i) + " sweep count differs");
      continue;
    }
    for (std::size_t j = 0; j < bs.size(); ++j) {
      if (bs[j]["label"].as_string() != cs[j]["label"].as_string() ||
          bs[j]["points"].as_number() != cs[j]["points"].as_number())
        st.fail("pass " + fmt((double)i) + " sweep " + fmt((double)j) +
                " label/points differ");
    }
    // Calibration points: ledger-deterministic, so values must agree
    // exactly (tiny epsilon for serialization rounding).
    const auto& bc = bp[i]["calibration_points"].items();
    const auto& cc = cp[i]["calibration_points"].items();
    if (!bc.empty() || !cc.empty()) {
      if (bc.size() != cc.size()) {
        st.fail("pass " + fmt((double)i) + " calibration point count differs");
      } else {
        for (std::size_t j = 0; j < bc.size(); ++j) {
          double b = bc[j]["slowdown"].as_number();
          double c = cc[j]["slowdown"].as_number();
          if (bc[j]["n"].as_number() != cc[j]["n"].as_number() ||
              bc[j]["m"].as_number() != cc[j]["m"].as_number() ||
              bc[j]["p"].as_number() != cc[j]["p"].as_number() ||
              std::fabs(b - c) > 1e-6 * std::max(std::fabs(b), 1.0))
            st.fail("pass " + fmt((double)i) + " calibration point " +
                    fmt((double)j) + " differs (deterministic value!)");
        }
      }
    }
  }
  // Timing drift: same hardware only.
  if (spec.drift.empty()) return;
  if (!comparable) {
    st.refused_drift = true;
    os << "REFUSED drift comparison: baseline host '" << baseline.hostname
       << "' (" << baseline.num_cpus << " cpus) vs candidate host '"
       << candidate.hostname << "' (" << candidate.num_cpus << " cpus)\n";
    return;
  }
  for (const DriftSpec& d : spec.drift) {
    if (d.metric == "speedup") {
      double base = baseline.root["speedup"].as_number();
      double cand = candidate.root["speedup"].as_number();
      if (base <= 0) continue;
      bool regressed = cand < base * (1.0 - d.rel_tol);
      os << (regressed ? "FAIL" : "ok  ") << "  speedup: " << fmt(base)
         << " -> " << fmt(cand) << "\n";
      if (regressed) st.failures.push_back({"speedup drifted down"});
    } else if (d.metric == "seconds") {
      for (std::size_t i = 0; i < bp.size(); ++i) {
        double base = bp[i]["seconds"].as_number();
        double cand = cp[i]["seconds"].as_number();
        if (base <= 0) continue;
        bool regressed = cand > base * (1.0 + d.rel_tol);
        os << (regressed ? "FAIL" : "ok  ") << "  pass " << i
           << " seconds: " << fmt(base) << " -> " << fmt(cand) << "\n";
        if (regressed)
          st.failures.push_back({"pass " + fmt((double)i) +
                                 " wall clock drifted up"});
      }
    }
  }
}

}  // namespace

int run_diff(const Artifact& baseline, const Artifact& candidate,
             const DiffOptions& opt, std::ostream& os) {
  DiffState st;
  st.report << "bsmp-stat diff\n  baseline:  " << baseline.path << " ("
            << baseline.schema << ", host "
            << (baseline.hostname.empty() ? "?" : baseline.hostname) << ", "
            << baseline.num_cpus << " cpus)\n  candidate: " << candidate.path
            << " (" << candidate.schema << ", host "
            << (candidate.hostname.empty() ? "?" : candidate.hostname) << ", "
            << candidate.num_cpus << " cpus)\n";

  int code = kExitOk;
  if (baseline.kind != candidate.kind ||
      baseline.kind == ArtifactKind::kUnknown) {
    os << st.report.str();
    os << "error: artifacts are of different (or unknown) kinds\n";
    return kExitUsage;
  }

  FileSpec spec;
  if (!opt.tolerances_path.empty()) {
    std::string err;
    if (!load_spec_for(opt.tolerances_path, basename_of(baseline.path), spec,
                       err)) {
      os << st.report.str() << "error: " << err << "\n";
      return kExitUsage;
    }
  }

  bool comparable = comparable_hardware(baseline, candidate);
  if (baseline.kind == ArtifactKind::kGoogleBenchmark)
    diff_gbench(baseline, candidate, spec, comparable, st);
  else
    diff_metrics(baseline, candidate, spec, comparable, st);

  if (!st.failures.empty()) {
    st.report << "\n" << st.failures.size() << " regression(s)\n";
    code = kExitRegression;
  } else if (st.refused_drift && opt.require_comparable) {
    st.report << "\nrefused: --require-comparable and hardware differs\n";
    code = kExitRefused;
  } else {
    st.report << "\n0 regressions\n";
  }

  os << st.report.str();
  if (!opt.report_path.empty()) {
    std::ofstream f(opt.report_path);
    f << st.report.str();
    if (!f) {
      os << "error: cannot write report " << opt.report_path << "\n";
      return kExitUsage;
    }
  }
  return code;
}

int run_fit(const Artifact& a, std::ostream& os) {
  if (a.kind != ArtifactKind::kMetrics) {
    os << "error: fit needs a bsmp-metrics artifact\n";
    return kExitUsage;
  }
  // Use the last pass that recorded calibration points (passes record
  // the same deterministic samples; the last is the parallel pass).
  const json::Value* cal = nullptr;
  for (const auto& pass : a.root["passes"].items()) {
    const json::Value& c = pass["calibration_points"];
    if (!c.items().empty()) cal = &c;
  }
  if (cal == nullptr) {
    os << "error: no calibration_points in " << a.path
       << " (run the `cal` emitter with metrics enabled)\n";
    return kExitUsage;
  }

  analytic::Calibration agg;
  analytic::MechanismCalibration mech;
  struct Holdout {
    double n, m, p, measured;
  };
  std::vector<Holdout> holdouts;
  for (const auto& c : cal->items()) {
    double n = c["n"].as_number(), m = c["m"].as_number(),
           p = c["p"].as_number();
    double slow = c["slowdown"].as_number();
    const double parts[] = {c["slow_reloc"].as_number(),
                            c["slow_exec"].as_number(),
                            c["slow_comm"].as_number()};
    // The model's domain; every comparison is false on NaN.
    if (!(m >= 1 && p >= 1 && p <= n && std::isfinite(n) && slow > 0 &&
          std::isfinite(slow) && parts[0] >= 0 && parts[1] >= 0 &&
          parts[2] >= 0 && std::isfinite(parts[0] + parts[1] + parts[2]))) {
      os << "error: a calibration point in " << a.path
         << " is outside the model's domain\n";
      return kExitUsage;
    }
    if (c["holdout"].as_number() != 0) {
      holdouts.push_back({n, m, p, slow});
      continue;
    }
    agg.add_measurement(n, m, p, slow);
    mech.add_measurement(n, m, p, slow, parts[0], parts[1], parts[2]);
  }
  if (mech.num_measurements() < 3) {
    os << "error: fewer than 3 training points\n";
    return kExitUsage;
  }
  agg.fit();
  mech.fit();

  os << "per-mechanism fit over " << mech.num_measurements()
     << " training points (" << holdouts.size() << " holdout)\n";
  os << "  aggregate fit:  c_reloc " << fmt(agg.c_relocation())
     << ", c_exec " << fmt(agg.c_execution()) << ", c_comm "
     << fmt(agg.c_communication()) << "  (MRE "
     << fmt(agg.training_error()) << ")\n";
  os << "  mechanism fit (pooled): c_reloc " << fmt(mech.c_relocation())
     << ", c_exec " << fmt(mech.c_execution()) << ", c_comm "
     << fmt(mech.c_communication()) << "  (MRE "
     << fmt(mech.training_error()) << ")\n";
  for (int r = 0; r < 4; ++r) {
    auto range = static_cast<analytic::Range>(r);
    os << "    range " << analytic::to_string(range) << ": c_reloc "
       << fmt(mech.c_relocation(range)) << ", c_exec "
       << fmt(mech.c_execution(range)) << ", c_comm "
       << fmt(mech.c_communication(range)) << "\n";
  }
  for (const Holdout& h : holdouts) {
    double pa = agg.predict(h.n, h.m, h.p);
    double pm = mech.predict(h.n, h.m, h.p);
    os << "  holdout n=" << fmt(h.n) << " m=" << fmt(h.m) << " p="
       << fmt(h.p) << ": measured " << fmt(h.measured) << ", aggregate "
       << fmt(pa) << " (ratio " << fmt(pa / h.measured)
       << "), mechanism " << fmt(pm) << " (ratio " << fmt(pm / h.measured)
       << ")\n";
  }
  return kExitOk;
}

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  auto usage = [&]() {
    err << "usage: bsmp-stat show <artifact.json>\n"
        << "       bsmp-stat diff [--tolerances <spec.json>] "
           "[--report <out.txt>]\n"
        << "                      [--require-comparable] <baseline.json> "
           "<candidate.json>\n"
        << "       bsmp-stat fit <metrics.json>\n"
        << "artifacts: bsmp-metrics-v1..v5 reports and google-benchmark\n"
        << "--benchmark_out files are auto-detected; anything else is\n"
        << "refused. fit reads the per-pass calibration_points (v4+).\n"
        << "exit codes: 0 ok/cleanly-skipped, 1 regression, 2 usage or\n"
        << "file error, 3 incomparable hardware under "
           "--require-comparable.\n";
    return kExitUsage;
  };
  if (argc < 2) return usage();
  std::string cmd = argv[1];

  auto load = [&](const std::string& path, Artifact& a) {
    LoadResult r = load_artifact(path);
    if (!r.ok) {
      err << "error: " << r.error << "\n";
      return false;
    }
    if (r.artifact.kind == ArtifactKind::kUnknown) {
      err << "error: " << path
          << ": unrecognized artifact (neither bsmp-metrics nor "
             "google-benchmark)\n";
      return false;
    }
    a = std::move(r.artifact);
    return true;
  };

  if (cmd == "show") {
    if (argc != 3) return usage();
    Artifact a;
    if (!load(argv[2], a)) return kExitUsage;
    return run_show(a, out);
  }
  if (cmd == "fit") {
    if (argc != 3) return usage();
    Artifact a;
    if (!load(argv[2], a)) return kExitUsage;
    return run_fit(a, out);
  }
  if (cmd == "diff") {
    DiffOptions opt;
    std::vector<std::string> files;
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--tolerances" && i + 1 < argc) {
        opt.tolerances_path = argv[++i];
      } else if (arg == "--report" && i + 1 < argc) {
        opt.report_path = argv[++i];
      } else if (arg == "--require-comparable") {
        opt.require_comparable = true;
      } else if (!arg.empty() && arg[0] == '-') {
        return usage();
      } else {
        files.push_back(arg);
      }
    }
    if (files.size() != 2) return usage();
    Artifact baseline, candidate;
    if (!load(files[0], baseline) || !load(files[1], candidate))
      return kExitUsage;
    return run_diff(baseline, candidate, opt, out);
  }
  return usage();
}

}  // namespace bsmp::stat
