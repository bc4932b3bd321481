// bsmp-stat (src/stat) and the core JSON reader behind it.
//
// The CLI surface is tested in-process through run_cli — the binary in
// tools/ is a two-line shell around it — against synthetic artifacts
// of both families (bsmp-metrics-v4 reports, google-benchmark
// --benchmark_out files) written to the test temp dir. The diff exit
// codes are the CI contract: 0 ok/cleanly-skipped, 1 regression,
// 2 usage/file error, 3 refused under --require-comparable.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "engine/metrics.hpp"
#include "stat/bsmp_stat.hpp"

using namespace bsmp;
namespace json = bsmp::core::json;

namespace {

// Unique per test case: ctest runs cases as parallel processes, and
// shared /tmp paths would race. The tolerance spec keys the *basename*
// of the baseline, so the prefix must stay constant across tests —
// a per-test subdirectory keeps uniqueness out of the filename.
std::string temp_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "bsmp_stat_" +
                    info->test_suite_name() + "_" + info->name();
  ::mkdir(dir.c_str(), 0755);
  return dir + "/bsmp_stat_" + name;
}

std::string write_file(const std::string& name, const std::string& body) {
  std::string path = temp_path(name);
  std::ofstream f(path);
  f << body;
  return path;
}

int cli(std::vector<std::string> args, std::string* out = nullptr,
        std::string* err = nullptr) {
  std::vector<const char*> argv = {"bsmp-stat"};
  for (const auto& a : args) argv.push_back(a.c_str());
  std::ostringstream o, e;
  int code = stat::run_cli(static_cast<int>(argv.size()), argv.data(), o, e);
  if (out != nullptr) *out = o.str();
  if (err != nullptr) *err = e.str();
  return code;
}

/// A minimal but complete bsmp-metrics-v4 report; `trace_dropped` is
/// the manifest's count of trace events lost to full ring buffers.
std::string metrics_doc(const std::string& hostname, int num_cpus,
                        int trace_dropped, double speedup = 2.0) {
  std::ostringstream os;
  os << R"({
  "schema": "bsmp-metrics-v4",
  "name": "unit",
  "speedup": )" << speedup
     << R"(,
  "manifest": {"git_sha": "abc", "build_type": "Release",
               "hardware_threads": )"
     << num_cpus << R"(, "num_cpus": )" << num_cpus
     << R"(, "hostname": ")" << hostname << R"(",
               "simd_isa": "avx2", "trace_dropped": )"
     << trace_dropped << R"(},
  "passes": [
    {"threads": 1, "seconds": 4.0,
     "sweeps": [{"label": "grid", "points": 8}],
     "hot": [],
     "calibration_points": [
         {"n": 64, "m": 4, "p": 4, "s": 4, "range": "range2",
          "holdout": 0, "slowdown": 3.0, "slow_reloc": 0.5,
          "slow_exec": 2.0, "slow_comm": 0.5, "term_reloc": 1.0,
          "term_exec": 2.0, "term_comm": 0.5},
         {"n": 128, "m": 4, "p": 4, "s": 5, "range": "range2",
          "holdout": 0, "slowdown": 4.0, "slow_reloc": 0.8,
          "slow_exec": 2.6, "slow_comm": 0.6, "term_reloc": 1.5,
          "term_exec": 2.5, "term_comm": 0.7},
         {"n": 128, "m": 8, "p": 4, "s": 6, "range": "range2",
          "holdout": 0, "slowdown": 3.5, "slow_reloc": 0.6,
          "slow_exec": 2.4, "slow_comm": 0.5, "term_reloc": 1.2,
          "term_exec": 2.2, "term_comm": 0.6},
         {"n": 256, "m": 4, "p": 4, "s": 7, "range": "range2",
          "holdout": 1, "slowdown": 5.0, "slow_reloc": 1.0,
          "slow_exec": 3.2, "slow_comm": 0.8, "term_reloc": 2.0,
          "term_exec": 3.0, "term_comm": 0.9}]}]
})";
  return os.str();
}

/// A minimal google-benchmark --benchmark_out document.
std::string gbench_doc(const std::string& hostname, int num_cpus,
                       double simd_rate) {
  std::ostringstream os;
  os << R"({
  "context": {"host_name": ")"
     << hostname << R"(", "num_cpus": )" << num_cpus
     << R"(, "executable": "./bench_unit",
              "library_build_type": "release"},
  "benchmarks": [
    {"name": "BM_leaf_dense", "real_time": 100.0, "time_unit": "ns",
     "vertices_per_sec": 1000.0},
    {"name": "BM_leaf_simd_median", "real_time": 40.0, "time_unit": "ns",
     "vertices_per_sec": )"
     << simd_rate << R"(}
  ]
})";
  return os.str();
}

// Keyed by baseline *basename* — write_file prefixes "bsmp_stat_".
const char* kTolerances = R"({
  "files": {
    "bsmp_stat_base.json": {
      "ratio_gates": [
        {"label": "simd >= 2x dense", "num": "BM_leaf_simd",
         "den": "BM_leaf_dense", "metric": "vertices_per_sec",
         "min": 2.0}
      ],
      "drift": [{"metric": "vertices_per_sec", "rel_tol": 0.25}]
    },
    "bsmp_stat_metrics_base.json": {
      "drift": [{"metric": "speedup", "rel_tol": 0.25}]
    }
  }
})";

}  // namespace

// ---- core::json ----------------------------------------------------

TEST(Json, ParsesTheFullValueModel) {
  auto p = json::parse(
      R"({"a": [1, 2.5, -3e2], "s": "x\n\"yA", "t": true, "z": null})");
  ASSERT_TRUE(p.ok) << p.error;
  const json::Value& v = p.value;
  EXPECT_DOUBLE_EQ(v["a"].items()[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v["a"].items()[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(v["a"].items()[2].as_number(), -300.0);
  EXPECT_EQ(v["s"].as_string(), "x\n\"yA");
  EXPECT_TRUE(v["t"].as_bool());
  EXPECT_TRUE(v["z"].is_null());
  EXPECT_TRUE(v.has("z"));
  EXPECT_FALSE(v.has("missing"));
  // Missing-path chaining is safe and falls back.
  EXPECT_DOUBLE_EQ(v["no"]["such"]["path"].as_number(7.0), 7.0);
}

TEST(Json, RejectsMalformedDocumentsWithPosition) {
  EXPECT_FALSE(json::parse("{").ok);
  EXPECT_FALSE(json::parse("[1, ]").ok);
  EXPECT_FALSE(json::parse("{} trailing").ok);
  EXPECT_FALSE(json::parse("'single'").ok);
  auto p = json::parse("{\n  \"a\": nope\n}");
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("2:"), std::string::npos) << p.error;
}

TEST(Json, NumbersFollowRfc8259) {
  for (const char* ok : {"0", "-0", "12", "-3.25", "0.5", "1e5", "1E+2",
                         "2.5e-3", "-0.0e0"})
    EXPECT_TRUE(json::parse(ok).ok) << ok;
  for (const char* bad : {".5", "+1", "01", "-01", "00", "1.", "1.e3", "1e",
                          "1e+", "-", "--1", "-.5", "Infinity", "NaN"}) {
    auto p = json::parse(bad);
    ASSERT_FALSE(p.ok) << bad;
    EXPECT_NE(p.error.find("invalid number at 1:1"), std::string::npos)
        << bad << ": " << p.error;
  }
  // The error points at the offending number inside a document.
  auto p = json::parse(R"({"a": .5, "b": +1, "c": 01})");
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("invalid number at 1:7"), std::string::npos)
      << p.error;
  for (const char* doc : {R"({"b": +1})", R"({"c": 01})"}) {
    auto q = json::parse(doc);
    ASSERT_FALSE(q.ok) << doc;
    EXPECT_NE(q.error.find("invalid number at 1:7"), std::string::npos)
        << doc << ": " << q.error;
  }
}

TEST(Json, DeepNestingFailsCleanly) {
  // Recursion is capped: 200,000 open brackets are refused at the
  // 513th level instead of overflowing the stack.
  auto p = json::parse(std::string(200000, '['));
  ASSERT_FALSE(p.ok);
  EXPECT_NE(p.error.find("nesting too deep at 1:513"), std::string::npos)
      << p.error;
  auto objs = json::parse(std::string(100000, '{'));
  ASSERT_FALSE(objs.ok);
  // 512 levels still parse; 513 do not, arrays or objects alike.
  EXPECT_TRUE(
      json::parse(std::string(512, '[') + std::string(512, ']')).ok);
  EXPECT_FALSE(
      json::parse(std::string(513, '[') + std::string(513, ']')).ok);
  std::string obj;
  for (int i = 0; i < 512; ++i) obj += R"({"k":)";
  obj += '1';
  obj.append(512, '}');
  EXPECT_TRUE(json::parse(obj).ok);
}

TEST(Json, CommittedArtifactsParse) {
  // Every committed bench/ baseline and the tolerance spec stay valid
  // under the strict grammar.
  for (const char* name :
       {"BENCH_exec_batch.json", "BENCH_exec_hotpath.json",
        "tolerances.json"}) {
    auto p = json::parse_file(std::string(BSMP_BENCH_DIR) + "/" + name);
    EXPECT_TRUE(p.ok) << p.error;
  }
}

TEST(Json, ParseFileReportsIoErrors) {
  EXPECT_FALSE(json::parse_file("/nonexistent/x.json").ok);
}

// ---- artifact loading ----------------------------------------------

TEST(StatLoad, ClassifiesBothArtifactFamilies) {
  auto mp = write_file("m.json", metrics_doc("boxA", 8, 0));
  auto gp = write_file("g.json", gbench_doc("boxB", 4, 2500.0));

  auto m = stat::load_artifact(mp);
  ASSERT_TRUE(m.ok) << m.error;
  EXPECT_EQ(m.artifact.kind, stat::ArtifactKind::kMetrics);
  EXPECT_EQ(m.artifact.schema, "bsmp-metrics-v4");
  EXPECT_EQ(m.artifact.hostname, "boxA");
  EXPECT_EQ(m.artifact.num_cpus, 8);

  auto g = stat::load_artifact(gp);
  ASSERT_TRUE(g.ok) << g.error;
  EXPECT_EQ(g.artifact.kind, stat::ArtifactKind::kGoogleBenchmark);
  EXPECT_EQ(g.artifact.hostname, "boxB");
  EXPECT_EQ(g.artifact.num_cpus, 4);

  EXPECT_FALSE(stat::comparable_hardware(m.artifact, g.artifact));
  EXPECT_TRUE(stat::comparable_hardware(m.artifact, m.artifact));
}

TEST(StatLoad, UnknownHardwareIsNeverComparable) {
  auto p1 = write_file("h1.json", metrics_doc("", 8, 0));
  auto a1 = stat::load_artifact(p1);
  ASSERT_TRUE(a1.ok);
  EXPECT_FALSE(stat::comparable_hardware(a1.artifact, a1.artifact));
}

// ---- show ----------------------------------------------------------

TEST(StatShow, ReportsCalibrationPointsAndBannersDrops) {
  auto clean = write_file("show_ok.json", metrics_doc("box", 4, 0));
  std::string out;
  EXPECT_EQ(cli({"show", clean}, &out), stat::kExitOk);
  EXPECT_NE(out.find("calibration points (4)"), std::string::npos) << out;
  EXPECT_NE(out.find("n=256 m=4 p=4 range range2 [holdout]"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("DROPPED"), std::string::npos) << out;

  auto dropped = write_file("show_drop.json", metrics_doc("box", 4, 7));
  EXPECT_EQ(cli({"show", dropped}, &out), stat::kExitOk);
  EXPECT_NE(out.find("WARNING: 7 trace events DROPPED"), std::string::npos)
      << "drop banner missing:\n"
      << out;
}

// ---- diff ----------------------------------------------------------

TEST(StatDiff, SelfCompareIsCleanAndGatesPass) {
  auto tol = write_file("tol.json", kTolerances);
  auto base = write_file("base.json", gbench_doc("box", 4, 2500.0));
  std::string out;
  int code = cli({"diff", "--tolerances", tol, base, base}, &out);
  EXPECT_EQ(code, stat::kExitOk) << out;
  EXPECT_NE(out.find("0 regressions"), std::string::npos) << out;
  // The simd gate ran (2.5x >= 2x).
  EXPECT_NE(out.find("simd >= 2x dense"), std::string::npos) << out;
}

TEST(StatDiff, RemovedGateFieldsAreRejected) {
  // min_cpus and den_floor were dropped from the spec: naming either,
  // in any file's gate, is a usage error that names the field.
  auto base = write_file("base.json", gbench_doc("box", 4, 2500.0));
  for (const char* field : {"min_cpus", "den_floor"}) {
    const std::string spec = std::string(R"({"files": {"other.json": {
      "ratio_gates": [{"label": "old gate", "num": "BM_leaf_simd",
        "den": "BM_leaf_dense", "metric": "vertices_per_sec",
        "min": 2.0, ")") + field + R"(": 64}]}}})";
    auto tol = write_file("tol_removed.json", spec);
    std::string out;
    EXPECT_EQ(cli({"diff", "--tolerances", tol, base, base}, &out),
              stat::kExitUsage)
        << out;
    EXPECT_NE(out.find(std::string("field '") + field + "'"),
              std::string::npos)
        << out;
  }
}

TEST(StatDiff, RatioGateRegressionFailsTheCandidate) {
  auto tol = write_file("tol.json", kTolerances);
  auto base = write_file("base.json", gbench_doc("box", 4, 2500.0));
  auto cand = write_file("cand.json", gbench_doc("box", 4, 1500.0));
  std::string out;
  int code = cli({"diff", "--tolerances", tol, base, cand}, &out);
  EXPECT_EQ(code, stat::kExitRegression) << out;
  EXPECT_NE(out.find("FAIL"), std::string::npos) << out;
}

TEST(StatDiff, AggregateNameFallbackResolvesMedianRows) {
  // gbench_doc only has BM_leaf_simd_median; the gate names
  // BM_leaf_simd and must still resolve.
  auto tol = write_file("tol.json", kTolerances);
  auto base = write_file("base.json", gbench_doc("box", 4, 2500.0));
  std::string out;
  EXPECT_EQ(cli({"diff", "--tolerances", tol, base, base}, &out),
            stat::kExitOk)
      << out;
  EXPECT_EQ(out.find("benchmark or metric missing"), std::string::npos)
      << out;
}

TEST(StatDiff, CrossHardwareDriftIsRefusedNotGated) {
  auto tol = write_file("tol.json", kTolerances);
  auto base = write_file("base.json", gbench_doc("vm", 1, 2500.0));
  // Different host, wildly different numbers: drift must NOT fire.
  auto cand = write_file("cand_other.json", gbench_doc("box", 8, 2200.0));
  std::string out;
  int code = cli({"diff", "--tolerances", tol, base, cand}, &out);
  EXPECT_EQ(code, stat::kExitOk) << out;
  EXPECT_NE(out.find("REFUSED drift"), std::string::npos) << out;

  code = cli({"diff", "--tolerances", tol, "--require-comparable", base,
              cand},
             &out);
  EXPECT_EQ(code, stat::kExitRefused) << out;
}

TEST(StatDiff, MetricsSelfCompareIsClean) {
  auto tol = write_file("tol.json", kTolerances);
  auto base = write_file("metrics_base.json", metrics_doc("box", 4, 0));
  std::string out;
  int code = cli({"diff", "--tolerances", tol, base, base}, &out);
  EXPECT_EQ(code, stat::kExitOk) << out;
  EXPECT_NE(out.find("0 regressions"), std::string::npos) << out;
}

TEST(StatDiff, MetricsDriftGatesSpeedupOnSameHardware) {
  auto tol = write_file("tol.json", kTolerances);
  auto base =
      write_file("metrics_base.json", metrics_doc("box", 4, 0, 2.0));
  auto cand =
      write_file("metrics_slow.json", metrics_doc("box", 4, 0, 1.0));
  std::string out;
  int code = cli({"diff", "--tolerances", tol, base, cand}, &out);
  EXPECT_EQ(code, stat::kExitRegression) << out;
  EXPECT_NE(out.find("speedup"), std::string::npos) << out;
}

TEST(StatDiff, ReportFileTeesTheOutput) {
  auto base = write_file("base.json", gbench_doc("box", 4, 2500.0));
  auto report = temp_path("report.txt");
  std::string out;
  EXPECT_EQ(cli({"diff", "--report", report, base, base}, &out),
            stat::kExitOk);
  std::ifstream f(report);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), out);
  std::remove(report.c_str());
}

TEST(StatDiff, UnwritableReportIsExitTwo) {
  // A clean diff whose --report cannot be written must not pass as
  // "0 regressions": the report the caller asked for would be lost.
  auto base = write_file("base.json", gbench_doc("box", 4, 2500.0));
  const std::string report = "/nonexistent/dir/r.txt";
  std::string out;
  EXPECT_EQ(cli({"diff", "--report", report, base, base}, &out),
            stat::kExitUsage);
  EXPECT_NE(out.find("error: cannot write report " + report),
            std::string::npos)
      << out;
}

TEST(StatDiff, MixedArtifactKindsAreAUsageError) {
  auto m = write_file("m.json", metrics_doc("box", 4, 0));
  auto g = write_file("g.json", gbench_doc("box", 4, 2500.0));
  EXPECT_EQ(cli({"diff", m, g}), stat::kExitUsage);
}

// ---- fit -----------------------------------------------------------

TEST(StatFit, FitsMechanismConstantsFromCalibrationPoints) {
  auto mp = write_file("fit.json", metrics_doc("box", 4, 0));
  std::string out;
  int code = cli({"fit", mp}, &out);
  EXPECT_EQ(code, stat::kExitOk) << out;
  EXPECT_NE(out.find("mechanism fit"), std::string::npos) << out;
  EXPECT_NE(out.find("holdout n=256"), std::string::npos) << out;
  EXPECT_NE(out.find("aggregate"), std::string::npos) << out;
}

TEST(StatFit, RefusesArtifactsWithoutCalibrationPoints) {
  auto g = write_file("g.json", gbench_doc("box", 4, 2500.0));
  std::string out, err;
  EXPECT_EQ(cli({"fit", g}, &out, &err), stat::kExitUsage);
}

TEST(StatFit, ReadsCalibrationPointsTheSerializerWrites) {
  // Writer/reader round trip: engine::MetricsReport::write_json and
  // bsmp-stat fit must agree on where calibration_points live.
  engine::MetricsReport report;
  report.name = "cal";
  report.manifest = engine::trace::make_run_manifest("cal");
  engine::MetricsPass pass;
  const int grid[][3] = {{64, 4, 4}, {128, 4, 4}, {128, 8, 4}, {128, 4, 8},
                         {256, 4, 4}};
  for (const auto& g : grid) {
    engine::CalibrationSample cs;
    cs.n = g[0], cs.m = g[1], cs.p = g[2];
    cs.range = "range2";
    cs.holdout = cs.n == 256;
    cs.slow_reloc = 0.01 * cs.n / cs.p;
    cs.slow_exec = 0.5 * cs.m;
    cs.slow_comm = 0.1 * cs.p;
    cs.slowdown = cs.slow_reloc + cs.slow_exec + cs.slow_comm;
    pass.calibration.push_back(cs);
  }
  report.passes.push_back(pass);
  const std::string path = temp_path("roundtrip.json");
  ASSERT_TRUE(report.write_json_file(path));

  auto loaded = stat::load_artifact(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.artifact.schema, "bsmp-metrics-v6");
  std::ostringstream out;
  EXPECT_EQ(stat::run_fit(loaded.artifact, out), stat::kExitOk) << out.str();
  EXPECT_NE(out.str().find("over 4 training points (1 holdout)"),
            std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("holdout n=256 m=4 p=4"), std::string::npos)
      << out.str();
}

TEST(StatFit, RefusesPointsOutsideTheModelDomain) {
  // A point the model cannot take (slowdown <= 0, p > n, a negative
  // part, m < 1) is refused with exit 2, not thrown past the CLI.
  const std::string good = metrics_doc("boxA", 8, 0);
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {R"("slowdown": 3.0)", R"("slowdown": 0)"},
           {R"("n": 64, "m": 4, "p": 4)", R"("n": 2, "m": 4, "p": 4)"},
           {R"("slow_reloc": 0.5)", R"("slow_reloc": -1)"},
           {R"("n": 64, "m": 4)", R"("n": 64, "m": 0)"}}) {
    std::string doc = good;
    const auto at = doc.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    doc.replace(at, from.size(), to);
    std::string out, err;
    EXPECT_EQ(cli({"fit", write_file("bad_point.json", doc)}, &out, &err),
              stat::kExitUsage)
        << to;
    EXPECT_NE(out.find("outside the model's domain"), std::string::npos)
        << out;
  }
}

// ---- CLI surface ---------------------------------------------------

TEST(StatCli, MalformedArtifactsAreExitTwo) {
  // A truncated artifact, a hostile deeply nested one, and well-formed
  // JSON that is no known artifact are refused with the usage/file exit
  // code, not a crash and not an empty report.
  auto good = metrics_doc("boxA", 8, 0);
  auto truncated =
      write_file("truncated.json", good.substr(0, good.size() / 2));
  auto deep = write_file("deep.json", std::string(200000, '['));
  auto number = write_file("number.json", R"({"a": .5, "b": +1, "c": 01})");
  auto empty_object = write_file("empty_object.json", "{}");
  auto array = write_file("array.json", "[1,2]");
  const std::pair<std::string, const char*> cases[] = {
      {truncated, ""},  // whichever token the cut lands in
      {deep, "nesting too deep"},
      {number, "invalid number"},
      {empty_object, "unrecognized artifact"},
      {array, "unrecognized artifact"}};
  for (const auto& [path, why] : cases) {
    std::string out, err;
    EXPECT_EQ(cli({"show", path}, &out, &err), stat::kExitUsage) << path;
    EXPECT_FALSE(err.empty()) << path;
    EXPECT_NE(err.find(why), std::string::npos) << err;
  }
}

TEST(StatCli, UsageAndMissingFilesAreExitTwo) {
  std::string out, err;
  EXPECT_EQ(cli({}, &out, &err), stat::kExitUsage);
  EXPECT_NE(err.find("usage:"), std::string::npos);
  EXPECT_EQ(cli({"bogus-subcommand"}, &out, &err), stat::kExitUsage);
  EXPECT_EQ(cli({"show", "/nonexistent/x.json"}, &out, &err),
            stat::kExitUsage);
  EXPECT_EQ(cli({"diff", "only-one.json"}, &out, &err), stat::kExitUsage);
}
