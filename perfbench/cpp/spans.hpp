// The benchmark's own span recorder, used only by traced runs. Spans
// are recorded by the benchmark around its calls into the program's
// public functions (one span per emitter pass, simulator call, executor
// call, split or boundary count), kept in memory, folded into per-name
// totals and self times, and written out when the run ends.
//
// It is independent of the program's compiled-in engine::trace
// recorder, which stays off (BSMP_TRACE unset) in every benchmark run.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Turn recording on or off for every thread (off by default).
void spans_enable(bool on);
bool spans_enabled();

/// RAII span. `name` must be a string literal: only the pointer is kept.
/// Nested spans on one thread become children of the enclosing one.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t t0_ = 0;  // 0: recording was off at construction
  int parent_ = -1;
};

/// Per-name fold of the recorded spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0;  ///< summed durations
  double self_s = 0;   ///< durations minus directly nested child spans
};

/// Fold every span recorded so far, keyed by name.
std::map<std::string, SpanTotals> spans_fold();

/// Write every recorded span as a JSON array of {name, tid, parent,
/// t0_ns, dur_ns}; false when the file cannot be written.
bool spans_write(const std::string& path);

}  // namespace perfbench
