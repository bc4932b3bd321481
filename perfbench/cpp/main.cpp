// perfbench — the bsmp end-to-end benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --expected <file> [--trace-out <file>]
//   perfbench --workload <name> --seed <n> --emit-expected
//
// Workloads (perfbench/NOTES.md says why each was chosen):
//   repro           every table emitter, one pass on a 1-thread and one
//                   on an N-thread engine::Pool per round;
//   sim_small_leaf  dc_uniproc / multiproc at the emitters' own m <= 4
//                   points, where separator recursion dominates;
//   sim_wide_leaf   the same entry points at the emitters' m >= 64
//                   points, where leaf evaluation dominates;
//   sim_forked      the multiproc scaling configs with every fork point
//                   on, bound to an N-thread pool.
//
// Every emitter pass and simulator call is one operation; its output is
// checked and mismatches are counted, never aborted on. The last stdout
// line is the result JSON; the lines before it start with '#'.
//
// --trace 1 is the per-layer run: the benchmark records its own spans
// around its calls into the program (spans.hpp), attaches the engine's
// metric sinks, alternates traced and untraced rounds to measure the
// tracing overhead, and replays the simulator configs through
// sep::Executor and geom::Region to time those layers on their own.
// The program's compiled-in engine::trace recorder stays off.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "engine/pool.hpp"
#include "engine/trace.hpp"
#include "sep/simd.hpp"
#include "workloads.hpp"

namespace perfbench {

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool Expected::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) return false;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto cut = line.find_last_of(' ');
    if (cut != std::string::npos) map_[line.substr(0, cut)] = line.substr(cut + 1);
  }
  return true;
}

bool Expected::matches(const std::string& key, const std::string& value) const {
  auto it = map_.find(key);
  return it != map_.end() && it->second == value;
}

}  // namespace perfbench

namespace {

using namespace bsmp;
using perfbench::Options;

Options parse(int argc, char** argv) {
  Options o;
  o.threads = std::min(4, engine::Pool::hardware_threads());
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--expected") o.expected = value();
    else if (a == "--trace-out") o.trace_out = value();
    else if (a == "--emit-expected") o.emit_expected = true;
    else throw std::runtime_error("unknown argument " + a);
  }
  if (o.workload != "repro" && o.workload != "sim_small_leaf" &&
      o.workload != "sim_wide_leaf" && o.workload != "sim_forked")
    throw std::runtime_error("unknown workload '" + o.workload + "'");
  return o;
}

/// Every one of these knobs changes the program being measured.
constexpr const char* kKnobs[] = {
    "BSMP_SIMD",        "BSMP_ARENA",      "BSMP_PARALLEL_GRAIN",
    "BSMP_RELOC_GRAIN", "BSMP_WAVE_GRAIN", "BSMP_PLAN_CACHE_BYTES",
    "BSMP_VALIDATE",    "BSMP_TRACE"};

/// Why this process must not report numbers ("" when it may).
std::string hygiene_problems(const engine::trace::RunManifest& m) {
  std::string why;
  for (const char* k : kKnobs)
    if (std::getenv(k) != nullptr) why += std::string(k) + " is set; ";
  if (m.build_type != "Release")
    why += "build type is '" + m.build_type + "', not Release; ";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why += "sanitizer build; ";
#endif
  if (engine::trace::enabled()) why += "the engine trace recorder is on; ";
  return why;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 2;
  }
  const engine::trace::RunManifest manifest =
      engine::trace::make_run_manifest("perfbench");
  const std::string problems = hygiene_problems(manifest);
  if (!problems.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report: %s\n",
                 problems.c_str());
    return 3;
  }
  perfbench::Expected exp;
  if (!o.emit_expected && !exp.load(o.expected)) {
    std::fprintf(stderr, "perfbench: cannot read reference outputs '%s'\n",
                 o.expected.c_str());
    return 2;
  }
  std::printf("# env: nproc=%d N=%d simd_isa=%s compiler=\"%s\" "
              "build_type=%s workload=%s seed=%llu trace=%d\n",
              engine::Pool::hardware_threads(), o.threads,
              sep::simd::active_isa(), manifest.compiler.c_str(),
              manifest.build_type.c_str(), o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);

  perfbench::Tally tally;
  perfbench::Metrics out;
  try {
    if (o.workload == "repro")
      perfbench::run_repro(o, exp, tally, out);
    else
      perfbench::run_sim(o, exp, tally, out);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
  if (o.emit_expected) return 0;

  if (o.trace) {
    for (const auto& [name, t] : perfbench::spans_fold())
      std::printf("# span %-24s n=%-7llu total %.4fs self %.4fs\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_s, t.self_s);
    if (!o.trace_out.empty() && !perfbench::spans_write(o.trace_out))
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   o.trace_out.c_str());
  }
  std::printf("# ops: %lld failed / %lld attempted\n",
              static_cast<long long>(tally.failed),
              static_cast<long long>(tally.attempted));
  perfbench::print_result(tally, out);
  return 0;
}
