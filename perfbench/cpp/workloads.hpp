// The benchmark workloads. Each one sets up (several times; setup_s is
// the median), runs timed rounds, checks every operation's output and
// adds its metrics: the end-to-end ones, or with --trace 1 the
// per-layer ones.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;            ///< N = min(4, nproc): threads=N pool size
  std::string expected;       ///< reference outputs file
  std::string trace_out;      ///< where traced runs write their spans
  bool emit_expected = false; ///< print the reference outputs and exit
};

/// The committed reference outputs, one "<key> <value>" per line:
/// "table <emitter> <index> <digest>" and
/// "ledger <workload> <call> <fingerprint>".
class Expected {
 public:
  bool load(const std::string& path);
  bool has(const std::string& key) const { return map_.count(key) != 0; }
  bool matches(const std::string& key, const std::string& value) const;

 private:
  std::map<std::string, std::string> map_;
};

/// 16 hex digits.
std::string hex(std::uint64_t v);

void run_repro(const Options& o, const Expected& exp, Tally& tally,
               Metrics& out);

/// sim_small_leaf, sim_wide_leaf or sim_forked.
void run_sim(const Options& o, const Expected& exp, Tally& tally,
             Metrics& out);

}  // namespace perfbench
